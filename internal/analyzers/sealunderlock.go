package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// SealUnderLock guards the PR 2 invariant: AEAD Seal/Open and blocking
// transport sends must never run while a sync.Mutex/RWMutex is held. Sealing
// is ~1µs of AES-GCM per message and a transport send can block on a peer's
// TCP window; doing either under Leader.mu serialized the whole group behind
// one slow member, which is exactly the bug PR 2 removed.
//
// Two rules, both intraprocedural by design (a transitive call-graph closure
// would condemn by-design patterns like engine dispatch under a per-member
// writer lock):
//
//  1. Flow rule: within a function body, track mutexes locked via
//     X.Lock()/X.RLock() and not yet released on the path to a flagged call.
//     defer X.Unlock() keeps the lock held for the rest of the body.
//  2. Convention rule: functions named *Locked declare "caller holds a
//     lock"; a flagged call anywhere in such a function runs under the
//     caller's lock even though no Lock() appears locally. This is the shape
//     of the original seal-under-Leader.mu bug (broadcastAdminLocked).
//
// Flagged calls: (*crypto.Cipher).Seal/Open, cipher.AEAD Seal/Open, one-shot
// crypto.Seal/Open, and Send/SendBatch methods on transport
// types.
var SealUnderLock = &Analyzer{
	Name: "sealunderlock",
	Doc:  "forbid AEAD Seal/Open and blocking transport sends while a mutex is held",
	Run:  runSealUnderLock,
}

func runSealUnderLock(p *Pass) {
	for _, f := range p.Unit.Files {
		if p.Unit.IsTest(f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &lockWalker{pass: p}
			held := lockState{}
			if strings.HasSuffix(fd.Name.Name, "Locked") {
				w.convention = fd.Name.Name
			}
			w.block(fd.Body.List, held)
		}
	}
}

// lockState maps a lock's receiver expression text ("l.mu", "s.conn.mu") to
// the position where it was acquired.
type lockState map[string]token.Pos

func (s lockState) clone() lockState {
	c := make(lockState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

type lockWalker struct {
	pass *Pass
	// convention is the enclosing function's name when it follows the
	// *Locked caller-holds-lock convention, else "".
	convention string
}

// sub returns a walker for a nested function literal: same pass, no
// inherited *Locked convention.
func (w *lockWalker) sub() *lockWalker {
	return &lockWalker{pass: w.pass}
}

func (w *lockWalker) block(stmts []ast.Stmt, held lockState) {
	for _, s := range stmts {
		w.stmt(s, held)
	}
}

// stmt threads lock state through one statement. Branch bodies get cloned
// state: a lock acquired inside a branch does not leak past it (conservative
// in the safe direction for Unlock-in-branch, which is rare and better
// restructured anyway).
func (w *lockWalker) stmt(s ast.Stmt, held lockState) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.expr(s.X, held)
	case *ast.DeferStmt:
		// defer X.Unlock() releases at return, not here: the lock stays
		// held for the remainder of the body. Any other deferred call is
		// scanned with current state.
		if key, op := w.mutexOp(s.Call); op == opUnlock && key != "" {
			return
		}
		w.expr(s.Call, held)
	case *ast.GoStmt:
		// The goroutine body runs without the spawner's locks; its
		// arguments are evaluated here, under them.
		for _, arg := range s.Call.Args {
			w.expr(arg, held)
		}
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			w.sub().block(lit.Body.List, lockState{})
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e, held)
		}
		for _, e := range s.Lhs {
			w.expr(e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e, held)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.expr(s.Cond, held)
		w.block(s.Body.List, held.clone())
		if s.Else != nil {
			w.stmt(s.Else, held.clone())
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			w.expr(s.Cond, held)
		}
		inner := held.clone()
		w.block(s.Body.List, inner)
		if s.Post != nil {
			w.stmt(s.Post, inner)
		}
	case *ast.RangeStmt:
		w.expr(s.X, held)
		w.block(s.Body.List, held.clone())
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.expr(s.Tag, held)
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			state := held.clone()
			for _, e := range cc.List {
				w.expr(e, state)
			}
			w.block(cc.Body, state)
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.stmt(s.Assign, held)
		for _, c := range s.Body.List {
			w.block(c.(*ast.CaseClause).Body, held.clone())
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			state := held.clone()
			if cc.Comm != nil {
				w.stmt(cc.Comm, state)
			}
			w.block(cc.Body, state)
		}
	case *ast.BlockStmt:
		w.block(s.List, held)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	case *ast.IncDecStmt:
		w.expr(s.X, held)
	case *ast.SendStmt:
		w.expr(s.Chan, held)
		w.expr(s.Value, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v, held)
					}
				}
			}
		}
	}
}

// expr scans one expression tree in syntactic order, mutating held as
// Lock/Unlock calls appear and flagging seal/send calls made while any lock
// is held (or while inside a *Locked-convention function).
func (w *lockWalker) expr(e ast.Expr, held lockState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A literal runs in its own context: fresh lock state, and
			// no *Locked convention — closures built inside *Locked
			// functions are typically enqueued to run after release
			// (the PR 2 writer-goroutine pattern), not under the lock.
			w.sub().block(n.Body.List, lockState{})
			return false
		case *ast.CallExpr:
			if key, op := w.mutexOp(n); key != "" {
				switch op {
				case opLock:
					held[key] = n.Pos()
				case opUnlock:
					delete(held, key)
				}
				return true
			}
			w.checkCall(n, held)
		}
		return true
	})
}

func (w *lockWalker) checkCall(call *ast.CallExpr, held lockState) {
	kind := w.flaggedCall(call)
	if kind == "" {
		return
	}
	if len(held) > 0 {
		p := w.pass
		p.Reportf(call.Pos(), "%s while holding %s: move AEAD work and sends off the lock (PR 2 invariant)",
			kind, strings.Join(heldNames(held), ", "))
		return
	}
	if w.convention != "" {
		w.pass.Reportf(call.Pos(), "%s inside %s: *Locked functions run under the caller's lock; enqueue instead and seal/send after release",
			kind, w.convention)
	}
}

// flaggedCall classifies a call as AEAD work or a blocking transport send,
// returning a human-readable description or "".
func (w *lockWalker) flaggedCall(call *ast.CallExpr) string {
	f := funcOf(w.pass.Unit.Info, call)
	if f == nil {
		return ""
	}
	name := f.Name()
	switch name {
	case "Seal", "Open":
		rt := recvType(f)
		if rt == nil {
			if isPkgFunc(f, cryptoPath, name) {
				return "one-shot crypto." + name
			}
			return ""
		}
		if typeIs(rt, cryptoPath, "Cipher") {
			return "AEAD Cipher." + name
		}
		if typeIs(rt, "crypto/cipher", "AEAD") {
			return "AEAD " + name
		}
	case "Send", "SendBatch":
		rt := recvType(f)
		if rt == nil {
			return ""
		}
		if n := namedOf(rt); n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == transportPath {
			return "transport " + name
		}
	}
	return ""
}

type mutexOpKind int

const (
	opNone mutexOpKind = iota
	opLock
	opUnlock
)

// mutexOp recognizes X.Lock / X.RLock / X.TryLock / X.Unlock / X.RUnlock
// calls, keyed by the receiver expression's text. Receivers are
// sync.Mutex / sync.RWMutex, or a lock-wrapper: a named struct with its own
// Lock/Unlock methods forwarding to an embedded or named mutex field (the
// registry stripe in internal/group). Holding a wrapper is holding its
// inner mutex, so a Seal or Send under it is the same serialization bug.
func (w *lockWalker) mutexOp(call *ast.CallExpr) (key string, op mutexOpKind) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", opNone
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock":
		op = opLock
	case "Unlock", "RUnlock":
		op = opUnlock
	default:
		return "", opNone
	}
	f := funcOf(w.pass.Unit.Info, call)
	if f == nil {
		return "", opNone
	}
	rt := recvType(f)
	if rt == nil {
		return "", opNone
	}
	if !typeIs(rt, "sync", "Mutex") && !typeIs(rt, "sync", "RWMutex") && !isLockWrapper(rt) {
		return "", opNone
	}
	return types.ExprString(sel.X), op
}

func heldNames(held lockState) []string {
	names := make([]string, 0, len(held))
	for k := range held {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
