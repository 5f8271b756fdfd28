package analyzers

import (
	"go/ast"
	"maps"
)

// This file is lockorder's statement walker. It threads the held-lock set
// through a function body's structured statements and hands every call to
// the analysis in syntactic order. Each branch arm and loop body is walked
// once, on its own copy of the set, so a lock acquired inside it does not
// leak past the construct. Goroutine and function-literal bodies run on
// their own stacks: they are walked detached, from an empty set.

func (w *lockOrderWalker) block(held lockOrderHeld, stmts []ast.Stmt) {
	for _, st := range stmts {
		w.stmt(held, st)
	}
}

// stmt threads held through one statement; a nil statement is a no-op.
func (w *lockOrderWalker) stmt(held lockOrderHeld, st ast.Stmt) {
	switch st := st.(type) {
	case *ast.ExprStmt:
		w.expr(held, st.X)
	case *ast.SendStmt:
		w.expr(held, st.Chan, st.Value)
	case *ast.IncDecStmt:
		w.expr(held, st.X)
	case *ast.AssignStmt:
		w.expr(held, st.Rhs...)
		w.expr(held, st.Lhs...)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					w.expr(held, vs.Values...)
				}
			}
		}
	case *ast.ReturnStmt:
		w.expr(held, st.Results...)
	case *ast.DeferStmt:
		w.deferred(held, st)
	case *ast.GoStmt:
		// The operands are evaluated here; the call runs on its own stack.
		w.expr(held, st.Call.Fun)
		w.expr(held, st.Call.Args...)
		w.detach(func(d lockOrderHeld) { w.call(d, st.Call) })
	case *ast.BlockStmt:
		w.block(held, st.List)
	case *ast.LabeledStmt:
		w.stmt(held, st.Stmt)
	case *ast.IfStmt:
		w.stmt(held, st.Init)
		w.expr(held, st.Cond)
		w.block(maps.Clone(held), st.Body.List)
		w.stmt(maps.Clone(held), st.Else)
	case *ast.ForStmt:
		w.stmt(held, st.Init)
		w.expr(held, st.Cond)
		body := maps.Clone(held)
		w.block(body, st.Body.List)
		w.stmt(body, st.Post)
	case *ast.RangeStmt:
		w.expr(held, st.X)
		w.block(maps.Clone(held), st.Body.List)
	case *ast.SwitchStmt:
		w.stmt(held, st.Init)
		w.expr(held, st.Tag)
		w.clauses(held, st.Body)
	case *ast.TypeSwitchStmt:
		w.stmt(held, st.Init)
		w.stmt(held, st.Assign)
		w.clauses(held, st.Body)
	case *ast.SelectStmt:
		w.clauses(held, st.Body)
	}
}

// clauses walks each clause of a switch, type switch or select on its own
// copy of held.
func (w *lockOrderWalker) clauses(held lockOrderHeld, body *ast.BlockStmt) {
	for _, c := range body.List {
		arm := maps.Clone(held)
		switch c := c.(type) {
		case *ast.CaseClause:
			w.expr(arm, c.List...)
			w.block(arm, c.Body)
		case *ast.CommClause:
			w.stmt(arm, c.Comm)
			w.block(arm, c.Body)
		}
	}
}

// expr hands every call in es to the analysis, in syntactic order, and
// walks function-literal bodies detached.
func (w *lockOrderWalker) expr(held lockOrderHeld, es ...ast.Expr) {
	for _, e := range es {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				w.detach(func(d lockOrderHeld) { w.block(d, n.Body.List) })
				return false
			case *ast.CallExpr:
				w.call(held, n)
			}
			return true
		})
	}
}

// detach walks a body that runs on its own stack, from no lock held and
// without the *Locked convention: closures built inside *Locked functions
// are typically enqueued to run after release (the PR 2 writer-goroutine
// pattern). Its acquisitions do not count toward the function's summary.
func (w *lockOrderWalker) detach(walk func(lockOrderHeld)) {
	prev := w.detached
	w.detached = true
	walk(lockOrderHeld{})
	w.detached = prev
}
