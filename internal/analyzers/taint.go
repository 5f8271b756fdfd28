package analyzers

import (
	"go/ast"
	"go/constant"
	"go/types"
	"maps"
	"slices"
	"strings"
)

// This file implements the forward taint engine keytaint runs on: a
// module-wide dataflow analysis tracking key-derived bytes from their
// sources (Key.Bytes(), key/secret-named byte slices, functions whose
// summaries prove they return key material) to observable sinks (logging,
// errors, metrics, audit events, unsealed wire frames), following values
// through assignments, struct-typed locals, slices, calls, and returns.
// Material passed straight to a sink and material laundered through helpers
// are the same finding. Two rules have no dataflow shape and run as local
// checks in the reporting pass: crypto.Key formatted with a verb that
// bypasses its redacting String, and string(…) of syntactic key material.
//
// The lattice is a bitset per value: bit i says "tainted iff parameter i of
// the enclosing function is tainted" (the receiver is parameter 0 for
// methods); the intrinsic bit says "tainted, full stop". Each function gets
// a summary — per-result taint masks plus the set of parameters that
// (transitively) reach a sink inside it — and summaries are iterated over
// the call graph to a fixpoint, so taint follows a key through any chain of
// module-internal helpers. External (stdlib) callees default to clean
// results, which makes hashing (sha256, hmac) and AEAD sealing natural
// sanitizers; an explicit allowlist of transparent transforms (append, copy,
// hex/base64 encoding, fmt.Sprint*) propagates instead.
//
// Precision notes, deliberate and documented: tracking is per-object and
// flow-insensitive within a function (bits only grow; a reassignment never
// un-taints), struct locals are tainted wholesale when any field is (which
// is what makes a wire payload builder carrying Key.Bytes() taint its
// Marshal result), and there is no global heap model — a cross-function
// flow must travel through a call, a return, or a key-named field, which
// matches how key material actually moves in this codebase.

// taintBits is the per-value lattice element.
type taintBits uint64

// taintIntrinsic marks a value tainted regardless of the caller.
const taintIntrinsic taintBits = 1 << 63

// maxTrackedParams bounds per-parameter precision; parameters beyond it are
// simply untracked (no summary bit), never misattributed.
const maxTrackedParams = 62

func paramBit(i int) taintBits {
	if i < 0 || i >= maxTrackedParams {
		return 0
	}
	return 1 << uint(i)
}

// taintSummary is one function's interprocedural behavior.
type taintSummary struct {
	// results[i] is the taint mask of result i: intrinsic and/or dependent
	// on specific parameters.
	results []taintBits
	// sinks maps a parameter index to a description of the sink it reaches
	// inside the function (possibly through further calls).
	sinks map[int]string
}

// taintEngine carries keytaint's summaries to a fixpoint, then reports.
type taintEngine struct {
	solver[*taintSummary]
}

// taintScope is the per-function analysis state. It is also the flow
// state: taint is flow-insensitive within a function, so a branch arm
// shares the one scope (clone is the identity) and a join has nothing to
// do.
type taintScope struct {
	eng   *taintEngine
	fn    *FuncNode
	info  *types.Info
	state map[types.Object]taintBits
	// origin names the first intrinsic source that tainted an object, for
	// diagnostics ("raw Key.Bytes()", "key material sessionKey").
	origin map[types.Object]string
	sum    *taintSummary
	// sinks is set on the final walk, which records sink encounters into
	// the summary and, once the engine reports, reports them.
	sinks bool
}

// analyze runs the local dataflow for fn and returns its summary.
func (e *taintEngine) analyze(fn *FuncNode) *taintSummary {
	sig := fn.Sig()
	sc := &taintScope{
		eng:    e,
		fn:     fn,
		info:   fn.Unit.Info,
		state:  map[types.Object]taintBits{},
		origin: map[types.Object]string{},
		sum: &taintSummary{
			results: make([]taintBits, sig.Results().Len()),
			sinks:   map[int]string{},
		},
	}
	for i, v := range fn.Params() {
		bits := paramBit(i)
		if desc, ok := nameTaintSource(v.Name(), v.Type()); ok {
			bits |= taintIntrinsic
			sc.origin[v] = desc
		}
		sc.state[v] = bits
	}
	same := func(sc *taintScope) *taintScope { return sc }
	f := &flow[*taintScope]{
		clone: same, entry: same, loops: 1,
		call: (*taintScope).checkCallSinks, lit: (*taintScope).checkLitSinks,
		assign: (*taintScope).assign, decl: (*taintScope).valueSpec, ret: (*taintScope).returnStmt,
	}
	// Local fixpoint, this lattice's loop policy: bits only grow, so a few
	// walks converge. The final walk sees the full state at every sink.
	for range 8 {
		before := maps.Clone(sc.state)
		f.block(sc, fn.Decl.Body.List)
		if maps.Equal(sc.state, before) {
			break
		}
	}
	sc.sinks = true
	f.block(sc, fn.Decl.Body.List)
	return sc.sum
}

// nameTaintSource reports whether a byte-sequence value's name marks it as
// key material (keyMaterial's "key" names, plus "secret" and
// password-derived material), with a description for diagnostics.
func nameTaintSource(name string, t types.Type) (string, bool) {
	if t == nil || !isByteSeq(t) {
		return "", false
	}
	for _, hot := range []string{"key", "secret", "password", "passwd"} {
		if lowerContains(name, hot) {
			return keyNamed(name)
		}
	}
	return "", false
}

// keyNamed describes a marked name as key material unless it names a
// derived, non-secret value (fingerprints, hashes, identifiers).
func keyNamed(name string) (string, bool) {
	for _, safe := range []string{"fingerprint", "fp", "hash", "digest", "sum", "id", "name"} {
		if lowerContains(name, safe) {
			return "", false
		}
	}
	return "key material " + name, true
}

// keyMaterial reports whether e syntactically denotes raw key bytes and, if
// so, a short description for the diagnostic: Key.Bytes(), a byte sequence
// whose name contains "key", a slice or conversion of either.
func keyMaterial(info *types.Info, e ast.Expr) (string, bool) {
	e = ast.Unparen(e)
	if sl, ok := e.(*ast.SliceExpr); ok {
		e = ast.Unparen(sl.X)
	}
	var name string
	switch e := e.(type) {
	case *ast.CallExpr:
		if f := funcOf(info, e); isMethod(f, cryptoPath, "Key", "Bytes") {
			return "raw Key.Bytes()", true
		}
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			if desc, ok := keyMaterial(info, e.Args[0]); ok {
				return desc + " (as string)", true
			}
		}
		return "", false
	case *ast.Ident:
		name = e.Name
	case *ast.SelectorExpr:
		name = e.Sel.Name
	default:
		return "", false
	}
	if tv, ok := info.Types[e]; !ok || !isByteSeq(tv.Type) || !lowerContains(name, "key") {
		return "", false
	}
	return keyNamed(name)
}

func isByteSeq(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Slice:
		b, ok := u.Elem().Underlying().(*types.Basic)
		return ok && b.Kind() == types.Byte
	case *types.Array:
		b, ok := u.Elem().Underlying().(*types.Basic)
		return ok && b.Kind() == types.Byte
	}
	return false
}

// sinkHit routes one tainted-value-meets-sink encounter: intrinsic taint is
// reported (during the engine's reporting pass); parameter-dependent taint
// becomes a summary obligation the callers discharge.
func (sc *taintScope) sinkHit(e ast.Expr, sink string) {
	bits, org := sc.exprTaint(e)
	if bits == 0 {
		return
	}
	if bits&taintIntrinsic != 0 && sc.eng.reporting {
		if org == "" {
			org = "key-derived bytes"
		}
		sc.eng.Reportf(e.Pos(), "%s reaches %s: log fingerprints (Key.Fingerprint), never key-derived bytes", org, sink)
	}
	for p := 0; p < maxTrackedParams; p++ {
		if bits&paramBit(p) != 0 {
			if _, ok := sc.sum.sinks[p]; !ok {
				sc.sum.sinks[p] = sink
			}
		}
	}
}

// checkCallSinks flags tainted arguments meeting sinks at a call: logging
// and printf-shaped helpers, error constructors, metrics, and any
// module-internal callee whose summary says a parameter reaches a sink
// inside it. It also runs the two local checks: string conversions of key
// material and redaction-bypassing format verbs on crypto.Key.
func (sc *taintScope) checkCallSinks(call *ast.CallExpr) {
	if !sc.sinks {
		return
	}
	if tv, ok := sc.info.Types[call.Fun]; ok && tv.IsType() {
		sc.checkStringConversion(call, tv.Type)
		return
	}
	f := funcOf(sc.info, call)
	if f == nil {
		// Printf-shaped func values (Config.Logf and friends) do not
		// resolve to a *types.Func.
		if name, ok := printfFuncVal(sc.info, call); ok {
			for _, a := range call.Args {
				sc.sinkHit(a, "a diagnostic log line ("+name+")")
			}
		}
		return
	}
	if isPkgFunc(f, "errors", "New") {
		for _, a := range call.Args {
			sc.sinkHit(a, "an error value (errors.New)")
		}
		return
	}
	if sink, format := formatSink(f, call); sink {
		sc.checkKeyVerbs(call, format)
		for _, a := range call.Args {
			sc.sinkHit(a, sinkLabel(f))
		}
		return
	}
	// Interprocedural step: the callee's summary says which parameters
	// reach a sink somewhere below it.
	sum := sc.eng.sums[funcID(f)]
	if sum == nil || len(sum.sinks) == 0 {
		return
	}
	for _, a := range callArgsOf(call, f) {
		what, ok := sum.sinks[a.param]
		if !ok || a.expr == nil {
			continue
		}
		sc.sinkHit(a.expr, what+" (via "+f.Name()+")")
	}
}

// checkStringConversion flags string(…) of syntactic key material: strings
// cannot be zeroed and end up in logs and dumps.
func (sc *taintScope) checkStringConversion(call *ast.CallExpr, to types.Type) {
	if !sc.eng.reporting || len(call.Args) != 1 {
		return
	}
	if b, ok := to.Underlying().(*types.Basic); !ok || b.Info()&types.IsString == 0 {
		return
	}
	if desc, ok := keyMaterial(sc.info, call.Args[0]); ok {
		sc.eng.Reportf(call.Pos(), "%s converted to string: strings are unzeroable and leak into logs and dumps; keep key bytes in []byte and compare with subtle", desc)
	}
}

// checkKeyVerbs flags a crypto.Key rendered by %x, %X or %#v, which bypass
// its redacting String method and reflect over the unexported key bytes.
func (sc *taintScope) checkKeyVerbs(call *ast.CallExpr, format int) {
	if !sc.eng.reporting {
		return
	}
	for i, v := range formatVerbs(sc.info, call, format) {
		if v != 'x' && v != 'X' && v != '#' || i >= len(call.Args) {
			continue
		}
		arg := call.Args[i]
		if t, ok := sc.info.Types[arg]; !ok || !typeIs(t.Type, cryptoPath, "Key") {
			continue
		}
		spelled := string(v)
		if v == '#' {
			spelled = "#v"
		}
		sc.eng.Reportf(arg.Pos(), "crypto.Key formatted with %%%s bypasses its redacting String method and dumps the raw key; use %%s or Key.Fingerprint", spelled)
	}
}

// printfStem reports whether name ends in a printf-convention logging stem
// (logf, debugf, auditf, ...).
func printfStem(name string) bool {
	lower := strings.ToLower(name)
	for _, stem := range []string{"logf", "printf", "errorf", "debugf", "warnf", "infof", "tracef", "auditf"} {
		if strings.HasSuffix(lower, stem) {
			return true
		}
	}
	return false
}

// formatSink decides whether a resolved callee is a logging/metrics sink.
// It returns the index of the format-string parameter, or -1 when the call
// has no (or an undecidable) format string.
func formatSink(f *types.Func, call *ast.CallExpr) (sink bool, formatIndex int) {
	if f.Pkg() != nil {
		switch f.Pkg().Path() {
		case "fmt", "log", "log/slog", metricsPath:
			return true, formatParamIndex(f)
		}
	}
	if rt := recvType(f); rt != nil {
		if typeIs(rt, "log", "Logger") || typeIs(rt, "log/slog", "Logger") {
			return true, formatParamIndex(f)
		}
		if n := namedOf(rt); n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == metricsPath {
			return true, formatParamIndex(f)
		}
	}
	if strings.HasSuffix(f.Name(), "f") && len(call.Args) >= 1 && printfStem(f.Name()) {
		return true, formatParamIndex(f)
	}
	return false, -1
}

// formatParamIndex finds the string parameter directly before a variadic
// tail — the printf convention — or -1.
func formatParamIndex(f *types.Func) int {
	sig, ok := f.Type().(*types.Signature)
	if !ok || !sig.Variadic() || sig.Params().Len() < 2 {
		return -1
	}
	i := sig.Params().Len() - 2
	b, ok := sig.Params().At(i).Type().Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsString == 0 {
		return -1
	}
	return i
}

// formatVerbs maps argument indexes of call to the format verb that will
// render them ('#' standing for %#v), when the format string is a
// compile-time constant and simple enough to pair verbs to arguments (no
// '*' width/precision args).
func formatVerbs(info *types.Info, call *ast.CallExpr, formatIndex int) map[int]byte {
	if formatIndex < 0 || formatIndex >= len(call.Args) {
		return nil
	}
	tv, ok := info.Types[call.Args[formatIndex]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return nil
	}
	format := constant.StringVal(tv.Value)
	verbs := map[int]byte{}
	arg := formatIndex + 1
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		if i < len(format) && format[i] == '%' {
			continue
		}
		sharp := false
		for i < len(format) && strings.IndexByte("+-# 0123456789.", format[i]) >= 0 {
			if format[i] == '#' {
				sharp = true
			}
			i++
		}
		if i >= len(format) {
			break
		}
		if format[i] == '*' || format[i] == '[' {
			return nil // dynamic width or explicit indexes: give up
		}
		v := format[i]
		if sharp && v == 'v' {
			v = '#'
		}
		verbs[arg] = v
		arg++
	}
	return verbs
}

// sinkLabel renders a resolved sink callee for a diagnostic message.
func sinkLabel(f *types.Func) string {
	if f.Pkg() != nil && recvType(f) == nil {
		return f.Pkg().Name() + "." + f.Name()
	}
	return f.Name()
}

// printfFuncVal recognizes calls through printf-shaped func values — a
// func-typed field or variable whose name carries a logging stem. These
// calls have no *types.Func, so they are invisible to formatSink.
func printfFuncVal(info *types.Info, call *ast.CallExpr) (string, bool) {
	var name string
	fun := ast.Unparen(call.Fun)
	switch fun := fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	default:
		return "", false
	}
	if tv, ok := info.Types[fun]; !ok || tv.IsType() || !printfStem(name) {
		return "", false
	}
	return name, true
}

// checkLitSinks flags tainted values copied into audit/metrics event
// structs, which are exported and retained, and tainted bytes placed into a
// wire.Envelope Payload at construction: an envelope payload that is not a
// Seal output is an unsealed frame, and key-derived bytes in it cross the
// enclave boundary in the clear.
func (sc *taintScope) checkLitSinks(lit *ast.CompositeLit) {
	tv, ok := sc.info.Types[lit]
	if !ok || !sc.sinks {
		return
	}
	if named := namedOf(tv.Type); named != nil && strings.HasSuffix(named.Obj().Name(), "Event") {
		if _, ok := named.Underlying().(*types.Struct); ok {
			for _, elt := range lit.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				sc.sinkHit(elt, "a retained "+typeLabel(named)+" event")
			}
		}
	}
	if !typeIs(tv.Type, wirePath, "Envelope") {
		return
	}
	for _, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Payload" {
				sc.sinkHit(kv.Value, "an unsealed wire frame payload")
			}
		}
	}
}

// assign merges rhs taint into lhs targets. Field and index stores taint
// the whole base object (coarse, and the safe direction). On the final walk
// it also flags tainted bytes stored into an existing envelope's Payload.
func (sc *taintScope) assign(a *ast.AssignStmt) {
	if len(a.Lhs) > 1 && len(a.Rhs) == 1 {
		// x, y := f()  /  v, ok := m[k]
		bits, org := sc.multiTaint(a.Rhs[0], len(a.Lhs))
		for i, lhs := range a.Lhs {
			sc.store(lhs, bits[i], org)
		}
		return
	}
	for i, lhs := range a.Lhs {
		if i >= len(a.Rhs) {
			continue
		}
		bits, org := sc.exprTaint(a.Rhs[i])
		sc.store(lhs, bits, org)
		if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok && sc.sinks && sel.Sel.Name == "Payload" {
			if tv, ok := sc.info.Types[sel.X]; ok && typeIs(tv.Type, wirePath, "Envelope") {
				sc.sinkHit(a.Rhs[i], "an unsealed wire frame payload")
			}
		}
	}
}

func (sc *taintScope) valueSpec(vs *ast.ValueSpec) {
	for i, name := range vs.Names {
		if obj := sc.info.Defs[name]; obj != nil && i < len(vs.Values) {
			bits, org := sc.exprTaint(vs.Values[i])
			sc.merge(obj, bits, org)
		}
	}
}

func (sc *taintScope) returnStmt(r *ast.ReturnStmt) {
	sig := sc.fn.Sig()
	if len(r.Results) == 0 {
		// Bare return with named results.
		for i := 0; i < sig.Results().Len(); i++ {
			if v := sig.Results().At(i); v.Name() != "" {
				sc.sum.results[i] |= sc.state[v]
			}
		}
		return
	}
	if len(r.Results) == 1 && sig.Results().Len() > 1 {
		// return f(): spread a multi-value call.
		bits, _ := sc.multiTaint(r.Results[0], sig.Results().Len())
		for i := range bits {
			sc.sum.results[i] |= bits[i]
		}
		return
	}
	for i, res := range r.Results {
		if i < len(sc.sum.results) {
			bits, _ := sc.exprTaint(res)
			sc.sum.results[i] |= bits
		}
	}
}

// store merges bits into the object behind an assignable expression.
func (sc *taintScope) store(lhs ast.Expr, bits taintBits, org string) {
	lhs = ast.Unparen(lhs)
	switch l := lhs.(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		if obj := sc.objOf(l); obj != nil {
			sc.merge(obj, bits, org)
		}
	case *ast.SelectorExpr:
		// x.f = tainted: taint x wholesale.
		if obj := sc.baseObj(l.X); obj != nil {
			sc.merge(obj, bits, org)
		}
	case *ast.IndexExpr:
		if obj := sc.baseObj(l.X); obj != nil {
			sc.merge(obj, bits, org)
		}
	case *ast.StarExpr:
		if obj := sc.baseObj(l.X); obj != nil {
			sc.merge(obj, bits, org)
		}
	}
}

func (sc *taintScope) merge(obj types.Object, bits taintBits, org string) {
	if bits == 0 {
		return
	}
	old := sc.state[obj]
	sc.state[obj] = old | bits
	if bits&taintIntrinsic != 0 && sc.origin[obj] == "" && org != "" {
		sc.origin[obj] = org
	}
}

// objOf resolves an identifier to its object (definition or use).
func (sc *taintScope) objOf(id *ast.Ident) types.Object {
	if o := sc.info.Defs[id]; o != nil {
		return o
	}
	return sc.info.Uses[id]
}

// baseObj peels selectors/indexes/derefs down to the root identifier's
// object: the local or parameter whose value is being mutated through.
func (sc *taintScope) baseObj(e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return sc.objOf(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// exprTaint computes the taint of an expression and names, best-effort,
// the intrinsic source behind it for diagnostics: the first one found among
// its operands, in order.
func (sc *taintScope) exprTaint(e ast.Expr) (taintBits, string) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := sc.objOf(e)
		if obj == nil {
			return 0, ""
		}
		if desc, ok := nameTaintSource(obj.Name(), obj.Type()); ok {
			return sc.state[obj] | taintIntrinsic, desc
		}
		return sc.state[obj], sc.origin[obj]
	case *ast.SelectorExpr:
		// Field read: taint of the base, plus name-based field sources
		// (s.sessionKey and friends).
		var bits taintBits
		var org string
		if obj := sc.baseObj(e.X); obj != nil {
			bits, org = sc.state[obj], sc.origin[obj]
		}
		if sel, ok := sc.info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if desc, ok := nameTaintSource(e.Sel.Name, sel.Type()); ok {
				bits, org = bits|taintIntrinsic, desc
			}
		} else if obj := sc.info.Uses[e.Sel]; obj != nil {
			// Package-qualified var.
			if _, ok := nameTaintSource(obj.Name(), obj.Type()); ok {
				bits |= taintIntrinsic
			}
		}
		return bits, org
	case *ast.CallExpr:
		bits, org := sc.callTaint(e, 1)
		return bits[0], org
	case *ast.SliceExpr:
		return sc.exprTaint(e.X)
	case *ast.IndexExpr:
		return sc.exprTaint(e.X)
	case *ast.StarExpr:
		return sc.exprTaint(e.X)
	case *ast.UnaryExpr:
		return sc.exprTaint(e.X)
	case *ast.TypeAssertExpr:
		return sc.exprTaint(e.X)
	case *ast.KeyValueExpr:
		return sc.exprTaint(e.Value)
	case *ast.BinaryExpr:
		bits, org, _ := sc.operandTaint(e.X, e.Y)
		return bits, org
	case *ast.CompositeLit:
		bits, org, _ := sc.operandTaint(e.Elts...)
		return bits, org
	}
	return 0, ""
}

// operandTaint joins the taint of several operands: the union of their
// bits, the first origin, and each operand's bits.
func (sc *taintScope) operandTaint(es ...ast.Expr) (taintBits, string, []taintBits) {
	var all taintBits
	var org string
	each := make([]taintBits, len(es))
	for i, e := range es {
		bits, o := sc.exprTaint(e)
		all |= bits
		each[i] = bits
		if org == "" {
			org = o
		}
	}
	return all, org, each
}

// multiTaint computes per-result taint for a (possibly multi-value) rhs.
func (sc *taintScope) multiTaint(e ast.Expr, n int) ([]taintBits, string) {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		return sc.callTaint(call, n)
	}
	out := make([]taintBits, n)
	var org string
	out[0], org = sc.exprTaint(e)
	return out, org
}

// callTaint computes per-result taint for a call. Its origin is raw key
// bytes, key material a callee's summary says it returns, or else the first
// origin among the arguments.
func (sc *taintScope) callTaint(call *ast.CallExpr, n int) ([]taintBits, string) {
	out := make([]taintBits, n)
	all, org, args := sc.operandTaint(call.Args...)
	// Conversion: string(b), []byte(s), T(v) — transparent.
	if tv, ok := sc.info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			out[0] = all
		}
		return out, org
	}
	f := funcOf(sc.info, call)
	if f == nil {
		// Builtins: append propagates everything it sees.
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
			out[0] = all
		}
		return out, org
	}
	// Intrinsic source: raw key bytes out of the redacting container.
	if isMethod(f, cryptoPath, "Key", "Bytes") {
		out[0] = taintIntrinsic
		return out, "raw Key.Bytes()"
	}
	// Module-internal callee: substitute the caller's argument taint into
	// the callee's summary.
	if sum := sc.eng.sums[funcID(f)]; sum != nil {
		params := make([]taintBits, len(recvFirstParams(f)))
		for _, a := range callArgsOf(call, f) {
			var bits taintBits
			if i := slices.Index(call.Args, a.expr); i >= 0 {
				bits = args[i]
			} else {
				bits, _ = sc.exprTaint(a.expr) // the receiver, parameter 0
			}
			if a.param < len(params) {
				params[a.param] |= bits
			}
		}
		for i := 0; i < n && i < len(sum.results); i++ {
			out[i] = substitute(sum.results[i], params)
		}
		if len(sum.results) > 0 && sum.results[0]&taintIntrinsic != 0 {
			org = "key material returned by " + f.Name()
		}
		return out, org
	}
	// External transparent transforms.
	if taintTransparent(f) {
		out[0] = all
	}
	return out, org
}

// substitute folds per-parameter caller taint into a summary mask.
func substitute(mask taintBits, argBits []taintBits) taintBits {
	out := mask & taintIntrinsic
	for p, bits := range argBits {
		if mask&paramBit(p) != 0 {
			out |= bits
		}
	}
	return out
}

// taintTransparent lists external callees that return their input bytes in
// another shape (encodings, formatting, copies) — the transforms that keep
// secrets secret-bearing. Everything else external is a sanitizer by
// default (hashes, AEAD seals, constructors).
func taintTransparent(f *types.Func) bool {
	pkg := f.Pkg()
	if pkg == nil {
		return false
	}
	switch pkg.Path() {
	case "encoding/hex", "encoding/base64", "encoding/base32":
		return true
	case "fmt":
		switch f.Name() {
		case "Sprint", "Sprintf", "Sprintln", "Append", "Appendf", "Appendln":
			return true
		}
	case "bytes":
		switch f.Name() {
		case "Clone", "Join", "TrimSpace", "ToLower", "ToUpper", "Repeat":
			return true
		}
	case "slices":
		switch f.Name() {
		case "Clone", "Concat":
			return true
		}
	case "strings":
		switch f.Name() {
		case "Join", "Clone", "Repeat", "ToLower", "ToUpper", "TrimSpace":
			return true
		}
	}
	return false
}
