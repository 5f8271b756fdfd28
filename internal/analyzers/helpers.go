package analyzers

import (
	"go/ast"
	"go/types"
	"strings"
)

// Import paths the analyzers key on. Cross-unit identity is by path+name
// string, never types.Object pointer equality: each unit's importer builds
// its own package instances from export data, distinct from the objects of
// units loaded here.
const (
	cryptoPath    = "enclaves/internal/crypto"
	transportPath = "enclaves/internal/transport"
	metricsPath   = "enclaves/internal/metrics"
)

// funcOf returns the *types.Func a call statically resolves to (package
// function, method, or interface method), or nil.
func funcOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			f, _ := sel.Obj().(*types.Func)
			return f
		}
		// Package-qualified call: crypto.Seal(...).
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// namedOf unwraps pointers and type aliases down to the *types.Named core
// of t, or nil for unnamed types.
func namedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Alias:
			t = types.Unalias(tt)
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

// typeIs reports whether t (through pointers/aliases) is the named type
// pkgPath.name.
func typeIs(t types.Type, pkgPath, name string) bool {
	n := namedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}

// recvType returns the receiver type of f, or nil for package functions.
func recvType(f *types.Func) types.Type {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}

// isPkgFunc reports whether f is the package-level function pkgPath.name.
func isPkgFunc(f *types.Func, pkgPath, name string) bool {
	if f == nil || f.Name() != name || f.Pkg() == nil || f.Pkg().Path() != pkgPath {
		return false
	}
	return recvType(f) == nil
}

// isLockWrapper reports whether t (through pointers/aliases) is a named
// struct carrying a sync.Mutex or sync.RWMutex field — value or pointer,
// named or embedded. This is the shape of a lock-stripe wrapper whose
// Lock/Unlock methods forward to the inner mutex (the corpora's stripe and
// bucket types); holding one is holding a mutex as far as the seal-off-lock
// invariant is concerned.
func isLockWrapper(t types.Type) bool {
	n := namedOf(t)
	if n == nil {
		return false
	}
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		ft := st.Field(i).Type()
		if typeIs(ft, "sync", "Mutex") || typeIs(ft, "sync", "RWMutex") {
			return true
		}
	}
	return false
}

// isMethod reports whether f is a method named name whose receiver is the
// named type pkgPath.typeName (pointer or value).
func isMethod(f *types.Func, pkgPath, typeName, name string) bool {
	if f == nil || f.Name() != name {
		return false
	}
	rt := recvType(f)
	return rt != nil && typeIs(rt, pkgPath, typeName)
}

// constsOfType returns the names of every package-level constant declared
// with exactly the named type t, in declaration-scope (sorted) order.
func constsOfType(t *types.Named) []string {
	pkg := t.Obj().Pkg()
	if pkg == nil {
		return nil
	}
	var out []string
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		if n := namedOf(c.Type()); n != nil && n.Obj() == t.Obj() {
			out = append(out, name)
		}
	}
	return out
}

// lowerContains reports whether s contains sub, case-insensitively.
func lowerContains(s, sub string) bool {
	return strings.Contains(strings.ToLower(s), sub)
}

// eachUnit adapts a one-package check to the module: it runs once per unit.
func eachUnit(check func(*Pass, *Unit)) func(*Pass) {
	return func(p *Pass) {
		for _, u := range p.Module.Units {
			check(p, u)
		}
	}
}

// A callSite is one call expression with the file it appears in.
type callSite struct {
	call *ast.CallExpr
	file *ast.File
}

// forEachNonTestCall visits every call expression in the unit's non-test
// files.
func forEachNonTestCall(u *Unit, fn func(callSite)) {
	for _, f := range u.Files {
		if u.IsTest(f) {
			continue
		}
		file := f
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				fn(callSite{call: call, file: file})
			}
			return true
		})
	}
}
