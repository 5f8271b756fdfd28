package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
)

// This file is the interprocedural half of the framework: a module-wide
// function index and call graph over every loaded unit, and the one summary
// fixpoint. A check that inspects one package at a time cannot see a nonce
// consumed by a sealing helper or a lock taken two frames down. The flow
// analyzers (noncereuse, lockorder) follow values and effects across call
// edges using per-function summaries that solve computes to a fixpoint.

// A FuncID names a declared function or method uniquely across the module:
// "pkg/path.Name" for package functions, "pkg/path.(Recv).Name" for methods
// (pointerness of the receiver is erased — a method set has one body either
// way). IDs are strings, never *types.Func pointers: every unit imports its
// own copies of the packages it depends on, so object identity does not
// survive unit boundaries but path+name identity does.
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

// A FuncNode is one declared function body.
type FuncNode struct {
	ID   FuncID
	Decl *ast.FuncDecl
	Unit *Unit
	Obj  *types.Func
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

// A Module is what every analyzer runs over: the loaded units, all non-test
// function bodies indexed by FuncID, and the aggregated ignore directives of
// every file.
type Module struct {
	Units []*Unit
	Fset  *token.FileSet
	Funcs map[FuncID]*FuncNode

	// fileUnit maps a filename to its owning unit, for scoping diagnostics
	// to the packages an analyzer gates.
	fileUnit map[string]*Unit
	// ignores aggregates every unit's well-formed directives; directive
	// liveness (stale-suppression detection) is tracked by index into it.
	ignores []ignoreDirective

	// order lists FuncIDs sorted, for deterministic iteration.
	order []FuncID
}

// BuildModule indexes every non-test function body of units. Test files are
// excluded: the invariants gate production code.
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

// A solver carries one flow analyzer's per-function summaries to a
// fixpoint, then reports. Its embedded Pass is the analyzer's.
type solver[T any] struct {
	*Pass
	sums      map[FuncID]T
	reporting bool
	reported  map[token.Pos]bool
}

// solve iterates analyze over every function until no summary changes, at
// most 12 passes, then walks each function once more with reporting on.
func (s *solver[T]) solve(analyze func(*FuncNode) T) {
	s.sums, s.reported = map[FuncID]T{}, map[token.Pos]bool{}
	for range 12 {
		changed := false
		s.Module.EachFunc(func(fn *FuncNode) {
			sum := analyze(fn)
			if prev, ok := s.sums[fn.ID]; !ok || !reflect.DeepEqual(prev, sum) {
				s.sums[fn.ID] = sum
				changed = true
			}
		})
		if !changed {
			break
		}
	}
	s.reporting = true
	s.Module.EachFunc(func(fn *FuncNode) { analyze(fn) })
}

// reportf records a finding once the summaries are stable, at most once per
// position: a loop body walked twice must not report twice.
func (s *solver[T]) reportf(pos token.Pos, format string, args ...any) {
	if !s.reporting || s.reported[pos] {
		return
	}
	s.reported[pos] = true
	s.Reportf(pos, format, args...)
}
