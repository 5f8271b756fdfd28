package analyzers

import (
	"go/ast"
	"go/types"
	"maps"
	"strings"
)

// NonceReuse machine-checks the nonce lifecycle discipline behind every
// sealed channel in the runtime: the AdminMsg pipeline, the replica
// delta stream, and the resume handshake all prove freshness by carrying a
// never-before-used nonce in each sealed payload (the Next/NNext chain
// links). A nonce that is reused — drawn once and sealed twice, or read
// from state without being advanced — silently turns the freshness proof
// into a replay window.
//
// The rule: every value stored into a *freshness field* must be proved
// fresh on all paths to the store, and each proof is good for exactly one
// store. Freshness fields are crypto.Nonce struct fields named Next/NNext
// by convention, plus any nonce field annotated with a //enclavelint:fresh
// comment on its declaration. Fresh producers are:
//
//   - a crypto.NewNonce() draw (or crypto/rand.Read into the nonce);
//   - a chained-hash step: a crypto.Nonce built from a hash-package output
//     (the replica chain and LKH version-gating idiom);
//   - a module-internal call whose summary proves it returns a fresh nonce
//     on every path.
//
// The analysis is interprocedural: a helper that stores its nonce parameter
// into a freshness field gets a "consumes" summary, so its callers must
// prove freshness at the call site and the argument is spent there — the
// cross-function reuse PR 4's single-function analyzers cannot see. Echo
// fields (NPrev/Echo) deliberately carry old nonces and are not checked.
var NonceReuse = &Analyzer{
	Name: "noncereuse",
	Doc:  "require every sealed freshness field to carry a one-use nonce proved fresh on all paths",
	Run:  runNonceReuse,
}

func runNonceReuse(p *Pass) {
	e := &nonceEngine{solver: solver[*nonceSummary]{Pass: p}, annotated: map[string]bool{}}
	e.scanFreshAnnotations()
	e.solve(e.analyze)
}

// FreshAnnotation marks a struct field as a freshness field beyond the
// Next/NNext naming convention.
const FreshAnnotation = "//enclavelint:fresh"

// nonceState is the per-value lifecycle state; larger is worse, and path
// merges take the worst.
type nonceState int

const (
	nonceFresh nonceState = iota
	nonceUnknown
	nonceConsumed
)

type nonceEnv map[types.Object]nonceState

// joinWorst folds path states into dst: a value is fresh only if fresh on
// every arm, and unknown on an arm that never bound it.
func joinWorst(dst nonceEnv, arms []nonceEnv) {
	out := nonceEnv{}
	for _, a := range arms {
		for o := range a {
			worst := nonceFresh
			for _, b := range arms {
				st, ok := b[o]
				if !ok {
					st = nonceUnknown
				}
				worst = max(worst, st)
			}
			out[o] = worst
		}
	}
	maps.Copy(dst, out)
}

// nonceSummary is one function's interprocedural nonce behavior.
type nonceSummary struct {
	// consumes marks receiver-first parameter indexes stored into a
	// freshness field (directly or through further calls): callers must
	// prove freshness and the argument is spent at the call.
	consumes map[int]bool
	// fresh[i] reports that result i is a fresh nonce on every return path.
	fresh []bool
}

type nonceEngine struct {
	solver[*nonceSummary]
	// annotated holds "pkgPath.Type.Field" keys carrying the fresh
	// annotation on their declaration.
	annotated map[string]bool
}

// scanFreshAnnotations indexes //enclavelint:fresh field annotations across
// every unit (string-keyed, so the index survives the importers' duplicated
// type objects).
func (e *nonceEngine) scanFreshAnnotations() {
	for _, u := range e.Module.Units {
		for _, f := range u.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				for _, fld := range st.Fields.List {
					if !hasFreshComment(fld) {
						continue
					}
					for _, name := range fld.Names {
						e.annotated[u.Path+"."+ts.Name.Name+"."+name.Name] = true
					}
				}
				return true
			})
		}
	}
}

func hasFreshComment(f *ast.Field) bool {
	for _, cg := range []*ast.CommentGroup{f.Doc, f.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, FreshAnnotation) {
				return true
			}
		}
	}
	return false
}

// freshField reports whether the named struct field is a freshness field:
// a crypto.Nonce named Next/NNext, or annotated at its declaration.
func (e *nonceEngine) freshField(owner *types.Named, name string, t types.Type) bool {
	if !typeIs(t, cryptoPath, "Nonce") {
		return false
	}
	if name == "Next" || name == "NNext" {
		return true
	}
	if owner == nil || owner.Obj().Pkg() == nil {
		return false
	}
	return e.annotated[owner.Obj().Pkg().Path()+"."+owner.Obj().Name()+"."+name]
}

// analyze threads freshness state through fn's body: branches join
// worst-state, and loop bodies are walked twice so a nonce drawn before the
// loop but consumed inside it is seen consumed on the second pass.
func (e *nonceEngine) analyze(fn *FuncNode) *nonceSummary {
	sig := fn.Sig()
	w := &nonceWalker{
		eng:       e,
		fn:        fn,
		info:      fn.Unit.Info,
		paramIdx:  map[types.Object]int{},
		sum:       &nonceSummary{consumes: map[int]bool{}, fresh: make([]bool, sig.Results().Len())},
		sawReturn: make([]bool, sig.Results().Len()),
	}
	for i := range w.sum.fresh {
		w.sum.fresh[i] = true // until a return path says otherwise
	}
	for i, v := range fn.Params() {
		w.paramIdx[v] = i
	}
	f := &flow[nonceEnv]{
		clone: maps.Clone[nonceEnv], join: joinWorst, loops: 2, entry: maps.Clone[nonceEnv],
		call: w.call, lit: w.compositeLit, assign: w.assign, decl: w.decl, ret: w.returnStmt,
	}
	f.block(nonceEnv{}, fn.Decl.Body.List)
	for i := range w.sum.fresh {
		if !w.sawReturn[i] {
			w.sum.fresh[i] = false
		}
	}
	return w.sum
}

type nonceWalker struct {
	eng       *nonceEngine
	fn        *FuncNode
	info      *types.Info
	paramIdx  map[types.Object]int
	sum       *nonceSummary
	sawReturn []bool
}

// decl binds initialized nonce variables.
func (w *nonceWalker) decl(env nonceEnv, vs *ast.ValueSpec) {
	for i, name := range vs.Names {
		if obj := w.info.Defs[name]; obj != nil && i < len(vs.Values) {
			env[obj] = w.valueState(vs.Values[i], env)
		}
	}
}

// assign updates freshness for nonce-typed targets.
func (w *nonceWalker) assign(env nonceEnv, a *ast.AssignStmt) {
	// Freshness-field stores through assignment: p.Next = x.
	for i, lhs := range a.Lhs {
		if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok && i < len(a.Rhs) {
			if s, ok := w.info.Selections[sel]; ok && s.Kind() == types.FieldVal {
				if w.eng.freshField(namedOf(s.Recv()), sel.Sel.Name, s.Type()) {
					w.consume(a.Rhs[i], env)
				}
			}
		}
	}
	// Plain nonce-variable (re)binding.
	if len(a.Lhs) > 1 && len(a.Rhs) == 1 {
		// n, err := crypto.NewNonce() / helper()
		states := w.multiStates(a.Rhs[0], len(a.Lhs), env)
		for i, lhs := range a.Lhs {
			w.bind(lhs, states[i], env)
		}
		return
	}
	for i, lhs := range a.Lhs {
		if i < len(a.Rhs) {
			w.bind(lhs, w.valueState(a.Rhs[i], env), env)
		}
	}
}

// bind records the state of a nonce-typed assignment target.
func (w *nonceWalker) bind(lhs ast.Expr, st nonceState, env nonceEnv) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := w.info.Defs[id]
	if obj == nil {
		obj = w.info.Uses[id]
	}
	if obj == nil || !typeIs(obj.Type(), cryptoPath, "Nonce") {
		return
	}
	env[obj] = st
}

// multiStates gives per-result freshness for a multi-value rhs.
func (w *nonceWalker) multiStates(e ast.Expr, n int, env nonceEnv) []nonceState {
	out := make([]nonceState, n)
	for i := range out {
		out[i] = nonceUnknown
	}
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		if n > 0 {
			out[0] = w.valueState(e, env)
		}
		return out
	}
	f := funcOf(w.info, call)
	if f == nil {
		return out
	}
	if isPkgFunc(f, cryptoPath, "NewNonce") {
		out[0] = nonceFresh
		return out
	}
	if sum := w.eng.sums[funcID(f)]; sum != nil {
		for i := 0; i < n && i < len(sum.fresh); i++ {
			if sum.fresh[i] {
				out[i] = nonceFresh
			}
		}
	}
	return out
}

// valueState computes the freshness of a single-value expression.
func (w *nonceWalker) valueState(e ast.Expr, env nonceEnv) nonceState {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := w.info.Uses[e]
		if obj == nil {
			return nonceUnknown
		}
		if st, ok := env[obj]; ok {
			return st
		}
		return nonceUnknown
	case *ast.CallExpr:
		// Conversion to crypto.Nonce from a hash output: the chained-hash
		// freshness step.
		if tv, ok := w.info.Types[e.Fun]; ok && tv.IsType() && typeIs(tv.Type, cryptoPath, "Nonce") {
			if len(e.Args) == 1 && hashDerived(w.info, e.Args[0]) {
				return nonceFresh
			}
			return nonceUnknown
		}
		return w.multiStates(e, 1, env)[0]
	}
	return nonceUnknown
}

// hashDerived reports whether e contains a call into a hash package —
// the chained-hash producer shape.
func hashDerived(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := funcOf(info, call)
		if f == nil || f.Pkg() == nil {
			return true
		}
		switch f.Pkg().Path() {
		case "crypto/sha256", "crypto/sha512", "crypto/hmac", "hash", "crypto/sha1":
			found = true
			return false
		}
		return true
	})
	return found
}

// call handles producers with side effects (rand.Read into a nonce) and
// consuming callees (freshness params by summary).
func (w *nonceWalker) call(env nonceEnv, call *ast.CallExpr) {
	f := funcOf(w.info, call)
	if f == nil {
		return
	}
	// crypto/rand.Read(n[:]) refreshes n.
	if isPkgFunc(f, "crypto/rand", "Read") && len(call.Args) == 1 {
		if obj := nonceSliceBase(w.info, call.Args[0]); obj != nil {
			env[obj] = nonceFresh
		}
		return
	}
	sum := w.eng.sums[funcID(f)]
	if sum == nil || len(sum.consumes) == 0 {
		return
	}
	for _, a := range callArgsOf(call, f) {
		if sum.consumes[a.param] && a.expr != nil {
			w.consumeVia(a.expr, env, f.Name())
		}
	}
}

// compositeLit checks freshness-field values in struct literals.
func (w *nonceWalker) compositeLit(env nonceEnv, lit *ast.CompositeLit) {
	tv, ok := w.info.Types[lit]
	if !ok {
		return
	}
	named := namedOf(tv.Type)
	if named == nil {
		return
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			fld := st.Field(i)
			if fld.Name() == key.Name && w.eng.freshField(named, fld.Name(), fld.Type()) {
				w.consume(kv.Value, env)
			}
		}
	}
}

// consume enforces the one-use freshness rule at a freshness-field store.
func (w *nonceWalker) consume(e ast.Expr, env nonceEnv) {
	w.consumeVia(e, env, "")
}

func (w *nonceWalker) consumeVia(e ast.Expr, env nonceEnv, callee string) {
	via := ""
	if callee != "" {
		via = " (sealed as a freshness field inside " + callee + ")"
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := w.info.Uses[x]
		if obj == nil {
			return
		}
		if idx, isParam := w.paramIdx[obj]; isParam {
			st, seen := env[obj]
			if !seen || st == nonceUnknown {
				// First use of an untouched parameter: the obligation moves
				// to the callers.
				w.sum.consumes[idx] = true
				env[obj] = nonceConsumed
				return
			}
			w.spend(x, obj, st, env, via)
			return
		}
		st, seen := env[obj]
		if !seen {
			st = nonceUnknown
		}
		w.spend(x, obj, st, env, via)
	case *ast.CallExpr:
		if w.valueState(x, env) != nonceFresh {
			w.eng.reportf(x.Pos(), "nonce from this call is not proved fresh%s: draw crypto.NewNonce or advance the hash chain per message", via)
		}
	default:
		w.eng.reportf(e.Pos(), "freshness field receives a value not proved fresh%s: draw crypto.NewNonce (or a chained-hash step) on every path first", via)
	}
}

// spend transitions one nonce variable through a freshness-field store.
func (w *nonceWalker) spend(id *ast.Ident, obj types.Object, st nonceState, env nonceEnv, via string) {
	switch st {
	case nonceFresh:
		env[obj] = nonceConsumed
	case nonceConsumed:
		w.eng.reportf(id.Pos(), "nonce %s was already used as a freshness value%s: one draw seals one message — reuse reopens the replay window", id.Name, via)
	default:
		w.eng.reportf(id.Pos(), "nonce %s is not proved fresh on all paths to this freshness-field store%s: draw crypto.NewNonce (or a chained-hash step) first", id.Name, via)
	}
}

func (w *nonceWalker) returnStmt(env nonceEnv, r *ast.ReturnStmt) {
	sig := w.fn.Sig()
	if len(r.Results) == 0 {
		for i := 0; i < sig.Results().Len(); i++ {
			v := sig.Results().At(i)
			w.recordResult(i, v != nil && env[v] == nonceFresh && typeIs(v.Type(), cryptoPath, "Nonce"))
		}
		return
	}
	if len(r.Results) == 1 && sig.Results().Len() > 1 {
		states := w.multiStates(r.Results[0], sig.Results().Len(), env)
		for i, st := range states {
			w.recordResult(i, st == nonceFresh)
		}
		return
	}
	for i, res := range r.Results {
		if i < len(w.sawReturn) {
			fresh := typeIs(sig.Results().At(i).Type(), cryptoPath, "Nonce") && w.valueState(res, env) == nonceFresh
			w.recordResult(i, fresh)
		}
	}
}

func (w *nonceWalker) recordResult(i int, fresh bool) {
	w.sawReturn[i] = true
	if !fresh {
		w.sum.fresh[i] = false
	}
}

// nonceSliceBase returns the object of a crypto.Nonce variable sliced as
// n[:], or nil.
func nonceSliceBase(info *types.Info, e ast.Expr) types.Object {
	sl, ok := ast.Unparen(e).(*ast.SliceExpr)
	if !ok {
		return nil
	}
	id, ok := ast.Unparen(sl.X).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := info.Uses[id]
	if obj == nil || !typeIs(obj.Type(), cryptoPath, "Nonce") {
		return nil
	}
	return obj
}
