package analyzers

import "go/ast"

// This file is the one statement walker the flow analyzers (noncereuse,
// lockorder) share. Each of them is a lattice plus transfer
// hooks: the walker threads a state through a function body's structured
// statements, copies it into branch arms, joins the arms back, repeats loop
// bodies, and hands every call, composite literal, assignment, declaration
// and return to the analysis in syntactic order.
//
// The join rule lives here and only here: a construct that may run none of
// its bodies — an if without else, a switch or type switch without default,
// and every for and range loop, which can run zero times — joins the state
// it was entered with as one more arm.

// A flow is one analysis's view of a function body: a state type S, its
// lattice operations and its transfer hooks. Nil hooks are no-ops; a nil
// join keeps the state a construct was entered with.
type flow[S any] struct {
	// clone copies a state for a branch arm; join folds the arms' exit
	// states into dst, the state after the construct (dst may be an arm).
	clone func(S) S
	join  func(dst S, arms []S)
	// loops is how many times a loop body is walked: twice lets a value
	// one iteration spends be seen spent by the next.
	loops int
	// entry is the state a goroutine or function-literal body starts in.
	entry func(S) S
	// detached is set while such a body is walked: a hook that must not
	// count the body's effects toward its function's summary checks it.
	detached bool

	// call sees every call expression, before its operands.
	call func(S, *ast.CallExpr)
	lit  func(S, *ast.CompositeLit)
	// assign, decl and ret see their statement after its operands. A range
	// loop assigns its value from the ranged expression on each iteration.
	assign func(S, *ast.AssignStmt)
	decl   func(S, *ast.ValueSpec)
	ret    func(S, *ast.ReturnStmt)
	// deferred replaces the default walk of a deferred call: an ordinary
	// call, made where the defer statement stands.
	deferred func(S, *ast.DeferStmt)
}

func (f *flow[S]) block(s S, stmts []ast.Stmt) {
	for _, st := range stmts {
		f.stmt(s, st)
	}
}

// stmt threads s through one statement; a nil statement is a no-op.
func (f *flow[S]) stmt(s S, st ast.Stmt) {
	switch st := st.(type) {
	case *ast.ExprStmt:
		f.expr(s, st.X)
	case *ast.SendStmt:
		f.expr(s, st.Chan, st.Value)
	case *ast.IncDecStmt:
		f.expr(s, st.X)
	case *ast.AssignStmt:
		f.expr(s, st.Rhs...)
		f.expr(s, st.Lhs...)
		if f.assign != nil {
			f.assign(s, st)
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					f.expr(s, vs.Values...)
					if f.decl != nil {
						f.decl(s, vs)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		f.expr(s, st.Results...)
		if f.ret != nil {
			f.ret(s, st)
		}
	case *ast.DeferStmt:
		if f.deferred != nil {
			f.deferred(s, st)
		} else {
			f.expr(s, st.Call)
		}
	case *ast.GoStmt:
		// The operands are evaluated here; the call runs on its own stack.
		f.expr(s, st.Call.Fun)
		f.expr(s, st.Call.Args...)
		f.detach(s, func(d S) { f.call(d, st.Call) })
	case *ast.BlockStmt:
		f.block(s, st.List)
	case *ast.LabeledStmt:
		f.stmt(s, st.Stmt)
	case *ast.IfStmt:
		f.stmt(s, st.Init)
		f.expr(s, st.Cond)
		then, els := f.clone(s), f.clone(s)
		f.block(then, st.Body.List)
		f.stmt(els, st.Else)
		f.merge(s, then, els)
	case *ast.ForStmt:
		f.stmt(s, st.Init)
		f.expr(s, st.Cond)
		body := f.clone(s)
		for range f.loops {
			f.block(body, st.Body.List)
			f.stmt(body, st.Post)
		}
		f.merge(s, body, s)
	case *ast.RangeStmt:
		f.expr(s, st.X)
		body := f.clone(s)
		for range f.loops {
			if st.Value != nil && f.assign != nil {
				f.assign(body, &ast.AssignStmt{Lhs: []ast.Expr{st.Value}, Tok: st.Tok, Rhs: []ast.Expr{st.X}})
			}
			f.block(body, st.Body.List)
		}
		f.merge(s, body, s)
	case *ast.SwitchStmt:
		f.stmt(s, st.Init)
		f.expr(s, st.Tag)
		f.clauses(s, st.Body)
	case *ast.TypeSwitchStmt:
		f.stmt(s, st.Init)
		f.stmt(s, st.Assign)
		f.clauses(s, st.Body)
	case *ast.SelectStmt:
		f.clauses(s, st.Body)
	}
}

// clauses walks each clause of a switch, type switch or select on its own
// copy of s and joins the arms into s. Without a default no clause need
// run, so s itself is an arm; a select always runs one.
func (f *flow[S]) clauses(s S, body *ast.BlockStmt) {
	var arms []S
	exhaustive := false
	for _, c := range body.List {
		arm := f.clone(s)
		switch c := c.(type) {
		case *ast.CaseClause:
			exhaustive = exhaustive || c.List == nil
			f.expr(arm, c.List...)
			f.block(arm, c.Body)
		case *ast.CommClause:
			exhaustive = true
			f.stmt(arm, c.Comm)
			f.block(arm, c.Body)
		}
		arms = append(arms, arm)
	}
	if !exhaustive {
		arms = append(arms, s)
	}
	f.merge(s, arms...)
}

func (f *flow[S]) merge(s S, arms ...S) {
	if f.join != nil {
		f.join(s, arms)
	}
}

// expr hands every call and composite literal in es to the hooks, in
// syntactic order, and walks function-literal bodies detached.
func (f *flow[S]) expr(s S, es ...ast.Expr) {
	for _, e := range es {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				f.detach(s, func(d S) { f.block(d, n.Body.List) })
				return false
			case *ast.CallExpr:
				f.call(s, n)
			case *ast.CompositeLit:
				if f.lit != nil {
					f.lit(s, n)
				}
			}
			return true
		})
	}
}

// detach walks a body that runs on its own stack from its entry state.
func (f *flow[S]) detach(s S, walk func(S)) {
	prev := f.detached
	f.detached = true
	walk(f.entry(s))
	f.detached = prev
}
