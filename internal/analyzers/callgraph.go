package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the interprocedural half of the framework: a module-wide
// function index and call graph over every loaded unit. A unit analyzer
// inspects one package at a time, so a key that flows through a single
// helper call, a nonce consumed by a sealing helper, or a lock taken two
// frames down are all invisible to it. Module analyzers (keytaint,
// noncereuse, lockorder) run over a Module instead of a Unit and follow
// values and effects across call edges using per-function summaries
// computed to a fixpoint.

// A FuncID names a declared function or method uniquely across the module:
// "pkg/path.Name" for package functions, "pkg/path.(Recv).Name" for methods
// (pointerness of the receiver is erased — a method set has one body either
// way). IDs are strings, never *types.Func pointers: the source importer
// type-checks its own copies of imported packages, so object identity does
// not survive unit boundaries but path+name identity does.
type FuncID string

// funcID derives the module-wide ID for f, or "" when f is nil or has no
// package (builtins).
func funcID(f *types.Func) FuncID {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	if rt := recvType(f); rt != nil {
		n := namedOf(rt)
		if n == nil {
			return ""
		}
		return FuncID(fmt.Sprintf("%s.(%s).%s", f.Pkg().Path(), n.Obj().Name(), f.Name()))
	}
	return FuncID(f.Pkg().Path() + "." + f.Name())
}

// A FuncNode is one declared function body in the call graph.
type FuncNode struct {
	ID   FuncID
	Decl *ast.FuncDecl
	Unit *Unit
	Obj  *types.Func
	// Callees lists the module-internal functions this body may call
	// (including calls made inside function literals it declares), each at
	// most once, in first-appearance order.
	Callees []FuncID
}

// Sig returns the function's signature.
func (fn *FuncNode) Sig() *types.Signature {
	return fn.Obj.Type().(*types.Signature)
}

// Params returns the dataflow parameter list: the receiver (when present)
// followed by the declared parameters, so summaries can treat methods and
// functions uniformly with the receiver as parameter 0.
func (fn *FuncNode) Params() []*types.Var { return recvFirstParams(fn.Obj) }

// recvFirstParams returns f's receiver (when present) followed by its
// declared parameters.
func recvFirstParams(f *types.Func) []*types.Var {
	sig, _ := f.Type().(*types.Signature)
	if sig == nil {
		return nil
	}
	var out []*types.Var
	if sig.Recv() != nil {
		out = append(out, sig.Recv())
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}

// callerArg is one caller-side argument paired with the callee parameter
// slot it feeds (receiver-first indexing; variadic overflow clamps onto the
// last parameter).
type callerArg struct {
	expr  ast.Expr
	param int
}

// callArgsOf enumerates a call's arguments with their callee parameter
// slots, the method receiver included as parameter 0.
func callArgsOf(call *ast.CallExpr, f *types.Func) []callerArg {
	sig, _ := f.Type().(*types.Signature)
	if sig == nil {
		return nil
	}
	var out []callerArg
	offset := 0
	if sig.Recv() != nil {
		offset = 1
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			out = append(out, callerArg{expr: sel.X, param: 0})
		}
	}
	nparams := sig.Params().Len()
	for i, a := range call.Args {
		p := i
		if sig.Variadic() && p >= nparams-1 {
			p = nparams - 1
		}
		if p >= nparams {
			continue
		}
		out = append(out, callerArg{expr: a, param: p + offset})
	}
	return out
}

// A Module is the interprocedural view over every loaded unit: all non-test
// function bodies indexed by FuncID, with resolved call edges, plus the
// aggregated ignore directives of every file so module-analyzer diagnostics
// are suppressible exactly like unit-analyzer ones.
type Module struct {
	Units []*Unit
	Fset  *token.FileSet
	Funcs map[FuncID]*FuncNode

	// fileUnit maps a filename to its owning unit, for scoping module
	// diagnostics to the packages an analyzer gates.
	fileUnit map[string]*Unit
	// ignores aggregates every unit's well-formed directives; directive
	// liveness (stale-suppression detection) is tracked by index into it.
	ignores []ignoreDirective

	// order lists FuncIDs sorted, for deterministic iteration.
	order []FuncID
}

// BuildModule indexes every non-test function body of units and resolves
// call edges between them. Test files are excluded for the same reason the
// unit analyzers skip them: the invariants gate production code.
func BuildModule(units []*Unit) *Module {
	m := &Module{
		Units:    units,
		Funcs:    map[FuncID]*FuncNode{},
		fileUnit: map[string]*Unit{},
	}
	if len(units) > 0 {
		m.Fset = units[0].Fset
	}
	for _, u := range units {
		for _, f := range u.Files {
			name := u.Fset.Position(f.Pos()).Filename
			if _, taken := m.fileUnit[name]; !taken || !u.IsTest(f) {
				m.fileUnit[name] = u
			}
		}
		m.ignores = append(m.ignores, u.ignores...)
		for _, f := range u.Files {
			if u.IsTest(f) {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := u.Info.Defs[fd.Name].(*types.Func)
				id := funcID(obj)
				if id == "" {
					continue
				}
				m.Funcs[id] = &FuncNode{ID: id, Decl: fd, Unit: u, Obj: obj}
			}
		}
	}
	// Second pass: resolve call edges now that the index is complete.
	for _, fn := range m.Funcs {
		seen := map[FuncID]bool{}
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id := funcID(funcOf(fn.Unit.Info, call))
			if id != "" && !seen[id] {
				if _, internal := m.Funcs[id]; internal {
					seen[id] = true
					fn.Callees = append(fn.Callees, id)
				}
			}
			return true
		})
	}
	for id := range m.Funcs {
		m.order = append(m.order, id)
	}
	sort.Slice(m.order, func(i, j int) bool { return m.order[i] < m.order[j] })
	return m
}

// EachFunc visits every function node in deterministic (sorted-ID) order.
func (m *Module) EachFunc(fn func(*FuncNode)) {
	for _, id := range m.order {
		fn(m.Funcs[id])
	}
}

// PathOfFile returns the import path of the unit owning filename, or "".
func (m *Module) PathOfFile(filename string) string {
	if u := m.fileUnit[filename]; u != nil {
		return u.Path
	}
	return ""
}

// Resolve returns the node a call statically dispatches to, when the callee
// is a module-internal declared function; nil for external, interface, or
// dynamic calls.
func (m *Module) Resolve(info *types.Info, call *ast.CallExpr) *FuncNode {
	return m.Funcs[funcID(funcOf(info, call))]
}

// A ModuleAnalyzer is one named interprocedural invariant check: Run sees
// the whole module (call graph, every unit) instead of one unit at a time.
type ModuleAnalyzer struct {
	Name string
	Doc  string
	Run  func(*ModulePass)
}

// A ModulePass carries one (ModuleAnalyzer, Module) pairing through a run.
type ModulePass struct {
	Analyzer *ModuleAnalyzer
	Module   *Module

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Module.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunModuleAnalyzer applies one module analyzer, filters findings through
// the module's aggregated ignore directives, and returns them sorted.
func RunModuleAnalyzer(a *ModuleAnalyzer, m *Module) []Diagnostic {
	var raw []Diagnostic
	a.Run(&ModulePass{Analyzer: a, Module: m, diags: &raw})
	var out []Diagnostic
	for _, d := range raw {
		if suppressedBy(d, m.ignores) < 0 {
			out = append(out, d)
		}
	}
	sortDiagnostics(out)
	return out
}
