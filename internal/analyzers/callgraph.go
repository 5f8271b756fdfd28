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
// fixpoint. A check that inspects one package at a time cannot see a lock
// taken two frames down. lockorder follows locks across call edges using
// per-function summaries that solve computes to a fixpoint.

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
				m.Funcs[id] = &FuncNode{ID: id, Decl: fd, Unit: u}
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

// A solver carries lockorder's per-function summaries, the lock classes
// each function acquires, to a fixpoint, then reports. Its embedded Pass is
// the analyzer's.
type solver struct {
	*Pass
	sums      map[FuncID]lockSet
	reporting bool
	reported  map[token.Pos]bool
}

// solve iterates analyze over every function until no summary changes, at
// most 12 passes, then walks each function once more with reporting on.
func (s *solver) solve(analyze func(*FuncNode) lockSet) {
	s.sums, s.reported = map[FuncID]lockSet{}, map[token.Pos]bool{}
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

// reportf records a finding once the summaries are stable, at most one per
// position.
func (s *solver) reportf(pos token.Pos, format string, args ...any) {
	if !s.reporting || s.reported[pos] {
		return
	}
	s.reported[pos] = true
	s.Reportf(pos, format, args...)
}
