package analyzers

import (
	"go/ast"
	"go/types"
	"strings"
)

// KeyTaint keeps key material out of observable channels. The types carry
// the paper's rule that a key reaches the network only inside {X}_K:
// crypto.Key has no accessor for its bytes and prints its fingerprint under
// every verb, a key enters a plaintext only through
// crypto.Plaintext.AppendKey, and a Plaintext leaves crypto only sealed.
// What the types leave open is local, and keytaint checks it one expression
// at a time:
//
//   - a byte sequence named like key material ("key", "secret",
//     "password"), or a slice or conversion of one, passed to a logging
//     sink (fmt/log/slog, printf-shaped helpers and func values), to
//     metrics, to errors.New, or into an audit/metrics *Event literal,
//     which is exported and retained;
//   - such a byte sequence converted to string;
//   - at the same sinks, a value whose type reaches a crypto.Key through an
//     unexported struct field, where fmt cannot call Key's Format and
//     prints the raw bytes (a pointer on the way hides them from some verbs).
//
// A name that also marks a derived, non-secret value (fingerprint, hash,
// id, ...) is not key material. Values are not followed through locals or
// calls.
var KeyTaint = &Analyzer{
	Name: "keytaint",
	Doc:  "forbid key-named bytes in logs, errors, metrics, audit events and string conversions",
	Run:  eachUnit(runKeyTaint),
}

func runKeyTaint(p *Pass, u *Unit) {
	for _, f := range u.Files {
		if u.IsTest(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkKeyCall(p, u.Info, n)
			case *ast.CompositeLit:
				checkKeyEvent(p, u.Info, n)
			}
			return true
		})
	}
}

// keyMaterial reports whether e is a byte sequence named like key material,
// or a slice or conversion of one, with a description for the diagnostic.
func keyMaterial(info *types.Info, e ast.Expr) (string, bool) {
	e = ast.Unparen(e)
	if sl, ok := e.(*ast.SliceExpr); ok {
		e = ast.Unparen(sl.X)
	}
	var name string
	switch e := e.(type) {
	case *ast.CallExpr:
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
	if tv, ok := info.Types[e]; !ok || !isByteSeq(tv.Type) {
		return "", false
	}
	for _, safe := range []string{"fingerprint", "fp", "hash", "digest", "sum", "id", "name"} {
		if lowerContains(name, safe) {
			return "", false
		}
	}
	for _, hot := range []string{"key", "secret", "password", "passwd"} {
		if lowerContains(name, hot) {
			return "key material " + name, true
		}
	}
	return "", false
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

// reportKeyArgs flags each argument that is key material, or holds a key
// in an unexported field, reaching sink.
func reportKeyArgs(p *Pass, info *types.Info, args []ast.Expr, sink string) {
	for _, a := range args {
		if desc, ok := keyMaterial(info, a); ok {
			p.Reportf(a.Pos(), "%s reaches %s: log fingerprints (Key.Fingerprint), never key bytes", desc, sink)
		} else if t := info.TypeOf(a); t != nil && hidesKey(t, false, map[types.Type]bool{}) {
			p.Reportf(a.Pos(), "%s holds a crypto.Key in an unexported field, which %s prints raw: log its fingerprint",
				types.TypeString(t, (*types.Package).Name), sink)
		}
	}
}

// hidesKey reports whether a value of type t reaches a crypto.Key through
// an unexported struct field (unexported: one was crossed already), by way
// of fields, pointers, slices, arrays and maps. seen records each type
// visited and whether below an unexported field, which sees every key the
// other visit would: it guards recursive types.
func hidesKey(t types.Type, unexported bool, seen map[types.Type]bool) bool {
	if typeIs(t, cryptoPath, "Key") {
		return unexported
	}
	if was, ok := seen[t]; ok && (was || !unexported) {
		return false
	}
	seen[t] = unexported
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := range u.NumFields() {
			if f := u.Field(i); hidesKey(f.Type(), unexported || !f.Exported(), seen) {
				return true
			}
		}
	case *types.Map:
		return hidesKey(u.Key(), unexported, seen) || hidesKey(u.Elem(), unexported, seen)
	case interface{ Elem() types.Type }: // pointer, slice, array, channel
		return hidesKey(u.Elem(), unexported, seen)
	}
	return false
}

// checkKeyCall flags key material converted to string or passed to a
// logging, metrics or error sink.
func checkKeyCall(p *Pass, info *types.Info, call *ast.CallExpr) {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		b, ok := tv.Type.Underlying().(*types.Basic)
		if !ok || b.Info()&types.IsString == 0 || len(call.Args) != 1 {
			return
		}
		if desc, ok := keyMaterial(info, call.Args[0]); ok {
			p.Reportf(call.Pos(), "%s converted to string: strings are unzeroable and leak into logs and dumps; keep key bytes in []byte and compare with subtle", desc)
		}
		return
	}
	f := funcOf(info, call)
	switch {
	case f == nil:
		// Printf-shaped func values (Config.Logf and friends) do not
		// resolve to a *types.Func.
		if name, ok := printfFuncVal(info, call); ok {
			reportKeyArgs(p, info, call.Args, "a diagnostic log line ("+name+")")
		}
	case isPkgFunc(f, "errors", "New"):
		reportKeyArgs(p, info, call.Args, "an error value (errors.New)")
	default:
		if isSink(f, call) {
			reportKeyArgs(p, info, call.Args, sinkLabel(f))
		}
	}
}

// checkKeyEvent flags key material copied into an audit/metrics event
// struct, which is exported and retained.
func checkKeyEvent(p *Pass, info *types.Info, lit *ast.CompositeLit) {
	tv, ok := info.Types[lit]
	if !ok {
		return
	}
	named := namedOf(tv.Type)
	if named == nil || !strings.HasSuffix(named.Obj().Name(), "Event") {
		return
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return
	}
	for _, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			elt = kv.Value
		}
		reportKeyArgs(p, info, []ast.Expr{elt}, "a retained "+typeLabel(named)+" event")
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

// isSink decides whether a resolved callee is a logging/metrics sink.
func isSink(f *types.Func, call *ast.CallExpr) bool {
	if f.Pkg() != nil {
		switch f.Pkg().Path() {
		case "fmt", "log", "log/slog", metricsPath:
			return true
		}
	}
	if rt := recvType(f); rt != nil {
		if typeIs(rt, "log", "Logger") || typeIs(rt, "log/slog", "Logger") {
			return true
		}
		if n := namedOf(rt); n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == metricsPath {
			return true
		}
	}
	return strings.HasSuffix(f.Name(), "f") && len(call.Args) >= 1 && printfStem(f.Name())
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
