package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder machine-checks the two lock invariants on a statement walker
// (flow.go) that tracks held locks (defer Unlock keeps a lock held;
// goroutine and function-literal bodies start lock-free).
//
// Order. internal/group's concurrency comment declares the acquisition order
//
//	//enclavelint:lockorder Leader.mu < changeLog.mu < memberConn.mu
//
// and every deadlock the model checker ever found in this codebase was an
// inversion of exactly that kind of edge: thread 1 takes Leader.mu then a
// member's lock, thread 2 takes the member's lock then blocks on Leader.mu.
// The analyzer derives the hierarchy from the annotations and reports:
//
//   - a direct inversion: acquiring a class the declared order says must
//     come before one already held;
//   - the same inversion through a call chain: a callee whose summary says
//     it (transitively) acquires an earlier class, called under a later one;
//   - a same-path re-acquire of one lock expression (sync.Mutex
//     self-deadlocks).
//
// Lock classes are named Type.mutexField for mutex fields ("Leader.mu") and
// bare Type for lock-wrapper types that declare their own Lock/Unlock
// ("bucket" in the corpus); a wrapper's inner mutex canonicalizes to the
// wrapper class. Names resolve in the package of the file carrying the
// annotation.
// Functions documented with //enclavelint:guardedby Leader.mu are analyzed
// with that class held on entry, so the callee side of a "callers must hold
// Leader.mu" contract is checked too. Classes never mentioned by any
// annotation are unconstrained: the analyzer enforces declared order, it
// does not invent one.
//
// Seal off the lock (the PR 2 invariant). AEAD Seal/Open and blocking
// transport sends must never run while a mutex — classed or not — is held.
// Sealing is ~1µs of AES-GCM per message and a send can block on a peer's
// TCP window; doing either under Leader.mu serialized the whole group behind
// one slow member. Functions named *Locked declare "caller holds a lock" and
// run under a pseudo-held <caller> lock with no order constraint: the shape
// of the original seal-under-Leader.mu bug (broadcastAdminLocked). This rule
// is intraprocedural by design — a transitive closure would condemn
// by-design patterns like engine dispatch under a per-member lock.
// Flagged calls: (*crypto.Cipher).Seal/SealPlaintext/Open, cipher.AEAD
// Seal/Open, one-shot crypto.Seal/SealPlaintext/Open, Send/SendBatch methods on transport types, and calls of
// a transport.Pull (Conn.Wake, which only wakes the writer, is fine).
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "enforce the annotated lock acquisition order across call chains, and forbid AEAD Seal/Open and blocking transport sends while a mutex is held",
	Run:  runLockOrder,
}

// LockOrderAnnotation declares a lock hierarchy: classes separated by '<',
// earliest first.
const LockOrderAnnotation = "//enclavelint:lockorder"

// GuardedByAnnotation on a function's doc comment declares that callers
// hold the named class(es) when the function runs.
const GuardedByAnnotation = "//enclavelint:guardedby"

func runLockOrder(p *Pass) {
	e := &lockOrderEngine{
		solver:  solver{Pass: p},
		before:  map[string]map[string]bool{},
		display: map[string]string{},
		guards:  map[FuncID][]string{},
	}
	e.collectAnnotations()
	e.closeOrder()
	e.solve(e.analyze)
}

// A lockOrderEngine's summaries are the lock classes each function's body
// and, transitively, its callees may acquire, excluding goroutine and
// function-literal bodies, which run on their own stacks.
type lockOrderEngine struct {
	solver
	// before[a][b] means class a must be acquired before class b on any
	// path holding both (transitively closed).
	before  map[string]map[string]bool
	display map[string]string
	guards  map[FuncID][]string
}

type lockSet map[string]bool

// collectAnnotations parses every lockorder and guardedby directive,
// reporting unresolvable class names and contradictory orders.
func (e *lockOrderEngine) collectAnnotations() {
	for _, u := range e.Module.Units {
		for _, f := range u.Files {
			if u.IsTest(f) {
				continue
			}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if rest, ok := strings.CutPrefix(c.Text, LockOrderAnnotation); ok {
						e.parseOrder(u, c, rest)
					}
				}
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				for _, c := range fd.Doc.List {
					rest, ok := strings.CutPrefix(c.Text, GuardedByAnnotation)
					if !ok {
						continue
					}
					obj, _ := u.Info.Defs[fd.Name].(*types.Func)
					id := funcID(obj)
					if id == "" {
						continue
					}
					for _, name := range strings.FieldsFunc(rest, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
						cls := e.resolveClass(u, name)
						if cls == "" {
							e.Reportf(c.Pos(), "guardedby directive names unknown lock class %q: want Type.mutexField or a lock-wrapper type declared in this package", name)
							continue
						}
						e.guards[id] = append(e.guards[id], cls)
					}
				}
			}
		}
	}
}

func (e *lockOrderEngine) parseOrder(u *Unit, c *ast.Comment, rest string) {
	parts := strings.Split(rest, "<")
	var chain []string
	for _, p := range parts {
		name := strings.TrimSpace(p)
		if name == "" {
			continue
		}
		cls := e.resolveClass(u, name)
		if cls == "" {
			e.Reportf(c.Pos(), "lockorder directive names unknown lock class %q: want Type.mutexField or a lock-wrapper type declared in this package", name)
			continue
		}
		chain = append(chain, cls)
	}
	if len(chain) < 2 {
		if len(parts) < 2 {
			e.Reportf(c.Pos(), "lockorder directive declares no order (want //enclavelint:lockorder A < B < ...)")
		}
		return
	}
	for i := 0; i < len(chain); i++ {
		for j := i + 1; j < len(chain); j++ {
			a, b := chain[i], chain[j]
			if e.before[b] != nil && e.before[b][a] {
				e.Reportf(c.Pos(), "lockorder directive contradicts an earlier declaration: %s < %s here, %s < %s elsewhere",
					e.display[a], e.display[b], e.display[b], e.display[a])
				continue
			}
			if e.before[a] == nil {
				e.before[a] = map[string]bool{}
			}
			e.before[a][b] = true
		}
	}
}

// closeOrder computes the transitive closure of the declared order.
func (e *lockOrderEngine) closeOrder() {
	classes := map[string]bool{}
	for a, bs := range e.before {
		classes[a] = true
		for b := range bs {
			classes[b] = true
		}
	}
	var all []string
	for c := range classes {
		all = append(all, c)
	}
	sort.Strings(all)
	for _, k := range all {
		for _, i := range all {
			if e.before[i] == nil || !e.before[i][k] {
				continue
			}
			for _, j := range all {
				if e.before[k] != nil && e.before[k][j] {
					e.before[i][j] = true
				}
			}
		}
	}
}

// resolveClass maps an annotation name to a lock-class key in u's package:
// "Type.field" for a mutex field, "Type" for a lock-wrapper type with its
// own Lock/Unlock methods. Returns "" when the name does not resolve.
func (e *lockOrderEngine) resolveClass(u *Unit, name string) string {
	parts := strings.Split(name, ".")
	tn, ok := u.Pkg.Scope().Lookup(parts[0]).(*types.TypeName)
	if !ok {
		return ""
	}
	named := namedOf(tn.Type())
	if named == nil {
		return ""
	}
	switch len(parts) {
	case 1:
		if !hasLockMethods(named) {
			return ""
		}
		return e.intern(u.Path+"."+parts[0], parts[0])
	case 2:
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			return ""
		}
		for i := 0; i < st.NumFields(); i++ {
			fld := st.Field(i)
			if fld.Name() != parts[1] {
				continue
			}
			if typeIs(fld.Type(), "sync", "Mutex") || typeIs(fld.Type(), "sync", "RWMutex") {
				return e.intern(u.Path+"."+parts[0]+"."+parts[1], name)
			}
		}
	}
	return ""
}

func (e *lockOrderEngine) intern(key, display string) string {
	if e.display[key] == "" {
		e.display[key] = display
	}
	return key
}

// hasLockMethods reports whether named declares its own Lock and Unlock
// methods — the lock-wrapper shape whose instances form one lock class.
func hasLockMethods(named *types.Named) bool {
	var lock, unlock bool
	for i := 0; i < named.NumMethods(); i++ {
		switch named.Method(i).Name() {
		case "Lock":
			lock = true
		case "Unlock":
			unlock = true
		}
	}
	return lock && unlock
}

// typeClass is the lock class of a whole named type: a lock wrapper.
func (e *lockOrderEngine) typeClass(n *types.Named) string {
	return e.intern(n.Obj().Pkg().Path()+"."+n.Obj().Name(), n.Obj().Name())
}

type lockOpKind int

const (
	opNone lockOpKind = iota
	opLock
	opUnlock
)

// lockOp recognizes X.Lock / X.RLock / X.TryLock / X.Unlock / X.RUnlock
// calls on a lock: a sync.Mutex / sync.RWMutex, or a lock wrapper — a named
// type with its own Lock/Unlock methods, or a struct carrying a mutex (a
// lock-striped table's bucket). Holding a wrapper is holding its inner
// mutex. The returned heldLock carries the receiver's expression text and
// its class, "" for a mutex no class names (a local, say); wrapper inner
// mutexes canonicalize to the wrapper class. A Lock-family call on anything
// else returns its op with an empty expr.
func (e *lockOrderEngine) lockOp(info *types.Info, call *ast.CallExpr) (heldLock, lockOpKind) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return heldLock{}, opNone
	}
	var op lockOpKind
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock":
		op = opLock
	case "Unlock", "RUnlock":
		op = opUnlock
	default:
		return heldLock{}, opNone
	}
	f := funcOf(info, call)
	if f == nil {
		return heldLock{}, opNone
	}
	rt := recvType(f)
	if rt == nil {
		return heldLock{}, opNone
	}
	lk := heldLock{expr: types.ExprString(sel.X)}
	switch n := namedOf(rt); {
	case typeIs(rt, "sync", "Mutex") || typeIs(rt, "sync", "RWMutex"):
		lk.cls = e.classOfMutexExpr(info, sel.X)
	case n != nil && hasLockMethods(n) && n.Obj().Pkg() != nil:
		lk.cls = e.typeClass(n)
	case !isLockWrapper(rt):
		return heldLock{}, op
	}
	return lk, op
}

// classOfMutexExpr derives the class of a raw mutex expression: a field
// selection owner.Type.field, canonicalized to the owner when the owner is
// a lock wrapper.
func (e *lockOrderEngine) classOfMutexExpr(info *types.Info, x ast.Expr) string {
	switch x := ast.Unparen(x).(type) {
	case *ast.SelectorExpr:
		s, ok := info.Selections[x]
		if !ok || s.Kind() != types.FieldVal {
			return ""
		}
		owner := namedOf(s.Recv())
		if owner == nil || owner.Obj().Pkg() == nil {
			return ""
		}
		if hasLockMethods(owner) {
			return e.typeClass(owner)
		}
		name := owner.Obj().Name() + "." + x.Sel.Name
		return e.intern(owner.Obj().Pkg().Path()+"."+name, name)
	case *ast.Ident:
		// An embedded mutex promoted through a named type: the type is the
		// class when it wraps a mutex.
		obj := info.Uses[x]
		if obj == nil {
			return ""
		}
		n := namedOf(obj.Type())
		if n == nil || n.Obj().Pkg() == nil || !isLockWrapper(n) {
			return ""
		}
		return e.typeClass(n)
	}
	return ""
}

// callerLock is the expr of a lock held on entry, and the key of the
// pseudo-held lock a *Locked function runs under.
const callerLock = "<caller>"

// A heldLock is one lock held on the current path.
type heldLock struct {
	pos  token.Pos
	expr string // receiver expression text, or callerLock
	cls  string // lock class, "" when none
}

// lockOrderHeld is the held set. Locks taken on the path are keyed by
// receiver expression text ("h.mu", "st"); locks held on entry by class
// (guardedby) or by callerLock (the *Locked convention).
type lockOrderHeld map[string]heldLock

// analyze walks one function body, recording the classes it acquires and
// — once reporting — flagging order violations and seals under a lock.
// Branch and loop bodies get a copy of the held set: a lock acquired inside
// one does not leak past it.
func (e *lockOrderEngine) analyze(fn *FuncNode) lockSet {
	w := &lockOrderWalker{eng: e, fn: fn, info: fn.Unit.Info, acquires: lockSet{}}
	held := lockOrderHeld{}
	for _, cls := range e.guards[fn.ID] {
		held[cls] = heldLock{pos: fn.Decl.Pos(), expr: callerLock, cls: cls}
		w.acquires[cls] = true
	}
	if strings.HasSuffix(fn.Decl.Name.Name, "Locked") {
		held[callerLock] = heldLock{pos: fn.Decl.Pos(), expr: callerLock}
	}
	w.block(held, fn.Decl.Body.List)
	return w.acquires
}

type lockOrderWalker struct {
	eng      *lockOrderEngine
	fn       *FuncNode
	info     *types.Info
	acquires lockSet
	// detached is set while a goroutine or function-literal body is
	// walked: its acquisitions do not count toward the summary.
	detached bool
}

// deferred keeps a lock held past defer X.Unlock(), which releases at
// return; any other deferred call is checked where it stands.
func (w *lockOrderWalker) deferred(held lockOrderHeld, d *ast.DeferStmt) {
	if lk, op := w.eng.lockOp(w.info, d.Call); op != opUnlock || lk.expr == "" {
		w.expr(held, d.Call)
	}
}

// call updates held as Lock/Unlock calls appear and checks every other call
// against it.
func (w *lockOrderWalker) call(held lockOrderHeld, n *ast.CallExpr) {
	lk, op := w.eng.lockOp(w.info, n)
	switch {
	case op == opNone:
		w.checkCall(n, held)
	case lk.expr == "":
		// A Lock-named method on something that is not a lock.
	case op == opLock:
		w.acquire(n, lk, held)
	default:
		delete(held, lk.expr)
		delete(held, lk.cls) // releasing a lock held on entry
	}
}

// acquire records taking lk with held already held, reporting inversions
// and same-instance re-acquires.
func (w *lockOrderWalker) acquire(call *ast.CallExpr, lk heldLock, held lockOrderHeld) {
	e := w.eng
	if lk.cls != "" {
		if prev, dup := held[lk.expr]; dup {
			e.reportf(call.Pos(), "acquiring %s twice on the same path (first at line %d): sync mutexes self-deadlock",
				e.display[lk.cls], e.Module.Fset.Position(prev.pos).Line)
		}
		for _, h := range held {
			if h.cls != lk.cls && e.before[lk.cls][h.cls] {
				e.reportf(call.Pos(), "acquiring %s while holding %s (line %d) inverts the declared lock order %s < %s: deadlock with any thread locking in order",
					e.display[lk.cls], e.display[h.cls], e.Module.Fset.Position(h.pos).Line, e.display[lk.cls], e.display[h.cls])
			}
		}
		if !w.detached {
			w.acquires[lk.cls] = true
		}
	}
	lk.pos = call.Pos()
	held[lk.expr] = lk
}

// checkCall applies the seal rule and callee summaries: a module-internal
// callee that transitively acquires an earlier class must not run under a
// later one.
func (w *lockOrderWalker) checkCall(call *ast.CallExpr, held lockOrderHeld) {
	w.checkSeal(call, held)
	e := w.eng
	f := funcOf(w.info, call)
	id := funcID(f)
	if id == "" {
		return
	}
	if !w.detached {
		for cls := range e.sums[id] {
			w.acquires[cls] = true
		}
	}
	if len(held) == 0 {
		return
	}
	for cls := range e.sums[id] {
		for _, h := range held {
			if h.cls != cls && e.before[cls][h.cls] {
				e.reportf(call.Pos(), "%s acquires %s, called while holding %s (line %d): inverts the declared lock order %s < %s through the call chain",
					f.Name(), e.display[cls], e.display[h.cls], e.Module.Fset.Position(h.pos).Line, e.display[cls], e.display[h.cls])
			}
		}
	}
}

// checkSeal flags AEAD work or a blocking send made while a lock taken in
// this body is held, or anywhere in a *Locked function.
func (w *lockOrderWalker) checkSeal(call *ast.CallExpr, held lockOrderHeld) {
	kind := flaggedCall(w.info, call)
	if kind == "" {
		return
	}
	var names []string
	for _, h := range held {
		if h.expr != callerLock {
			names = append(names, h.expr)
		}
	}
	if len(names) > 0 {
		sort.Strings(names)
		w.eng.reportf(call.Pos(), "%s while holding %s: move AEAD work and sends off the lock (PR 2 invariant)",
			kind, strings.Join(names, ", "))
	} else if _, ok := held[callerLock]; ok {
		w.eng.reportf(call.Pos(), "%s inside %s: *Locked functions run under the caller's lock; enqueue instead and seal/send after release",
			kind, w.fn.Decl.Name.Name)
	}
}

// flaggedCall classifies a call as AEAD work or a blocking transport send,
// returning a human-readable description or "". A transport.Pull seals what
// it drains, so calling one counts too.
func flaggedCall(info *types.Info, call *ast.CallExpr) string {
	if typeIs(info.TypeOf(call.Fun), transportPath, "Pull") {
		return "transport Pull hook"
	}
	f := funcOf(info, call)
	if f == nil {
		return ""
	}
	name := f.Name()
	switch name {
	case "Seal", "SealPlaintext", "Open":
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
