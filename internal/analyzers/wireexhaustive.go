package analyzers

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// WireExhaustive enforces total handling of protocol enumerations. A new
// wire message type that one handler silently drops is a liveness bug the
// type system cannot catch, so:
//
//  1. A switch over a named integer type with a package-level constant set
//     (wire.Type, wire.AdminKind, ...) must cover every constant or carry an
//     explicit default.
//  2. A type switch over a named interface (wire.AdminBody) must cover every
//     concrete implementation declared in the interface's package, or carry
//     a default.
//  3. A fuzz file whose seed corpus engages an enumeration (constants of the
//     type inside composite literals) must reference every constant of that
//     type somewhere in the file: a seed corpus that skips a message type
//     never mutates toward its parser edge cases.
//
// Rules 1 and 2 apply to non-test code; rule 3 is specifically about test
// files and applies only to enumerations declared in the package under
// analysis.
var WireExhaustive = &Analyzer{
	Name: "wireexhaustive",
	Doc:  "switches over protocol enums must be exhaustive or carry a default; fuzz corpora must seed every enum value",
	Run:  eachUnit(runWireExhaustive),
}

func runWireExhaustive(p *Pass, u *Unit) {
	for _, f := range u.Files {
		if !u.IsTest(f) {
			ast.Inspect(f, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.SwitchStmt:
					checkValueSwitch(p, u.Info, s)
				case *ast.TypeSwitchStmt:
					checkTypeSwitch(p, u.Info, s)
				}
				return true
			})
		}
		checkFuzzCorpus(p, u, f)
	}
}

// checkValueSwitch implements rule 1.
func checkValueSwitch(p *Pass, info *types.Info, s *ast.SwitchStmt) {
	if s.Tag == nil {
		return
	}
	tv, ok := info.Types[s.Tag]
	if !ok {
		return
	}
	named := namedOf(tv.Type)
	if named == nil || named.Obj().Pkg() == nil {
		return
	}
	basic, ok := named.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsInteger == 0 {
		return
	}
	consts := constsOfType(named)
	if len(consts) < 2 {
		return
	}
	covered := map[string]bool{}
	for _, c := range s.Body.List {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			return // explicit default: the author has a fallback path
		}
		for _, e := range cc.List {
			obj := caseConst(info, e)
			if obj == nil {
				return // non-constant case: coverage is undecidable
			}
			covered[obj.Name()] = true
		}
	}
	var missing []string
	for _, name := range consts {
		if !covered[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		p.Reportf(s.Switch, "switch over %s misses %s and has no default: handle every value or add an explicit default",
			typeLabel(named), strings.Join(missing, ", "))
	}
}

// checkTypeSwitch implements rule 2.
func checkTypeSwitch(p *Pass, info *types.Info, s *ast.TypeSwitchStmt) {
	var tagExpr ast.Expr
	switch a := s.Assign.(type) {
	case *ast.AssignStmt:
		if ta, ok := a.Rhs[0].(*ast.TypeAssertExpr); ok {
			tagExpr = ta.X
		}
	case *ast.ExprStmt:
		if ta, ok := a.X.(*ast.TypeAssertExpr); ok {
			tagExpr = ta.X
		}
	}
	if tagExpr == nil {
		return
	}
	tv, ok := info.Types[tagExpr]
	if !ok {
		return
	}
	named := namedOf(tv.Type)
	if named == nil || named.Obj().Pkg() == nil {
		return
	}
	iface, ok := named.Underlying().(*types.Interface)
	if !ok || iface.NumMethods() == 0 {
		return
	}
	impls := implementationsOf(named, iface)
	if len(impls) < 2 {
		return
	}
	covered := map[string]bool{}
	for _, c := range s.Body.List {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			return // explicit default
		}
		for _, e := range cc.List {
			if tv, ok := info.Types[e]; ok {
				if n := namedOf(tv.Type); n != nil {
					covered[n.Obj().Name()] = true
				}
			}
		}
	}
	var missing []string
	for _, name := range impls {
		if !covered[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		p.Reportf(s.Switch, "type switch over %s misses implementation(s) %s and has no default",
			typeLabel(named), strings.Join(missing, ", "))
	}
}

// checkFuzzCorpus implements rule 3 for one file.
func checkFuzzCorpus(p *Pass, u *Unit, f *ast.File) {
	var firstFuzz *ast.FuncDecl
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Fuzz") {
			firstFuzz = fd
			break
		}
	}
	if firstFuzz == nil {
		return
	}
	info := u.Info
	// engaged: enum types (declared in this package) whose constants appear
	// inside a composite literal — i.e. the corpus deliberately enumerates
	// them. referenced: every constant of such types used anywhere in the
	// file, composite or not (f.Add calls, helper tables, assertions).
	engaged := map[*types.TypeName]*types.Named{}
	referenced := map[*types.TypeName]map[string]bool{}
	record := func(id *ast.Ident, inComposite bool) {
		c, ok := info.Uses[id].(*types.Const)
		if !ok || c.Pkg() != u.Pkg {
			return
		}
		named := namedOf(c.Type())
		if named == nil || named.Obj().Pkg() != u.Pkg {
			return
		}
		basic, ok := named.Underlying().(*types.Basic)
		if !ok || basic.Info()&types.IsInteger == 0 {
			return
		}
		key := named.Obj()
		if inComposite {
			engaged[key] = named
		}
		if referenced[key] == nil {
			referenced[key] = map[string]bool{}
		}
		referenced[key][c.Name()] = true
	}
	var compositeDepth int
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			compositeDepth++
			for _, e := range n.Elts {
				ast.Inspect(e, walk)
			}
			compositeDepth--
			return false
		case *ast.Ident:
			record(n, compositeDepth > 0)
		}
		return true
	}
	ast.Inspect(f, walk)

	var keys []*types.TypeName
	for k := range engaged {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Name() < keys[j].Name() })
	for _, key := range keys {
		named := engaged[key]
		consts := constsOfType(named)
		if len(consts) < 2 {
			continue
		}
		var missing []string
		for _, name := range consts {
			if !referenced[key][name] {
				missing = append(missing, name)
			}
		}
		if len(missing) > 0 {
			p.Reportf(firstFuzz.Pos(), "fuzz seed corpus engages %s but never exercises %s: seed every message type so mutation reaches its parser edges",
				typeLabel(named), strings.Join(missing, ", "))
		}
	}
}

// caseConst resolves a case expression to the package-level constant it
// names, or nil.
func caseConst(info *types.Info, e ast.Expr) *types.Const {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	c, _ := info.Uses[id].(*types.Const)
	return c
}

// implementationsOf lists concrete named types in iface's declaring package
// that implement it, sorted.
func implementationsOf(named *types.Named, iface *types.Interface) []string {
	pkg := named.Obj().Pkg()
	var out []string
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() || tn == named.Obj() {
			continue
		}
		t := tn.Type()
		if _, isIface := t.Underlying().(*types.Interface); isIface {
			continue
		}
		if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// typeLabel renders pkg.Type for diagnostics.
func typeLabel(n *types.Named) string {
	return n.Obj().Pkg().Name() + "." + n.Obj().Name()
}
