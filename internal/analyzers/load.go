package analyzers

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// A Unit is one type-checked package variant: either a package's primary
// unit (non-test files plus in-package _test.go files) or its external
// X_test package. Analyzers see a fully resolved AST plus types.Info.
type Unit struct {
	// Path is the package's import path ("enclaves/internal/group").
	// External test packages share the import path of the package under
	// test; distinguish them by Name.
	Path string
	// Dir is the absolute directory the unit was loaded from.
	Dir string
	// Name is the package clause name ("group", "group_test").
	Name  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	test map[*ast.File]bool

	ignores    []ignoreDirective
	badIgnores []Diagnostic
}

// IsTest reports whether f came from a _test.go file (or an external test
// package, whose files are all test files).
func (u *Unit) IsTest(f *ast.File) bool { return u.test[f] }

// listed is the part of one `go list -json` record the loader reads.
type listed struct {
	ImportPath string
	Dir        string
	Name       string
	Export     string
	GoFiles    []string
	ImportMap  map[string]string
	ForTest    string
	Match      []string
}

// Load loads every package the patterns ("./...", "./internal/wire") match,
// expanded by the go tool from the current directory.
func Load(patterns []string) ([]*Unit, error) {
	return load("", "", patterns)
}

// LoadDir loads the one package in dir under importPath, which overrides
// the go tool's path for it: the corpora under testdata are loaded under
// the scoped paths the analyzers gate on.
func LoadDir(dir, importPath string) ([]*Unit, error) {
	return load(dir, importPath, []string{"."})
}

// load makes one `go list -deps -export -test -json` call in dir ("" for
// the current directory). The go tool expands the patterns, applies build
// constraints and compiles every dependency to export data; each matched
// package is then type-checked from source against that export data. A
// package yields up to two units: its primary unit (non-test files plus
// in-package _test.go files, the go tool's "p [p.test]" variant) and its
// external X_test package. A package that does not compile fails the go
// list call, and its stderr is the error.
func load(dir, importPath string, patterns []string) ([]*Unit, error) {
	cmd := exec.Command("go", append([]string{"list", "-deps", "-export", "-test", "-json"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		if msg := strings.TrimSpace(stderr.String()); msg != "" {
			return nil, errors.New(msg)
		}
		return nil, fmt.Errorf("go list: %v", err)
	}
	byPath := map[string]*listed{}
	var roots []*listed
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listed)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("go list: %v", err)
		}
		byPath[p.ImportPath] = p
		if len(p.Match) > 0 && p.ForTest == "" {
			roots = append(roots, p)
		}
	}
	slices.SortFunc(roots, func(a, b *listed) int { return strings.Compare(a.Dir, b.Dir) })
	fset := token.NewFileSet()
	var units []*Unit
	for _, r := range roots {
		path := r.ImportPath
		if importPath != "" {
			path = importPath
		}
		primary := byPath[r.ImportPath+" ["+r.ImportPath+".test]"]
		if primary == nil {
			primary = r
		}
		for _, v := range []*listed{primary, byPath[r.ImportPath+"_test ["+r.ImportPath+".test]"]} {
			if v == nil || len(v.GoFiles) == 0 {
				continue
			}
			u, err := parseUnit(fset, v, path)
			if err != nil {
				return nil, err
			}
			if err := typecheck(u, importer.ForCompiler(fset, "gc", exportLookup(v, byPath))); err != nil {
				return nil, err
			}
			units = append(units, u)
		}
	}
	return units, nil
}

// parseUnit parses the files of one listed package variant.
func parseUnit(fset *token.FileSet, v *listed, path string) (*Unit, error) {
	u := &Unit{Path: path, Dir: v.Dir, Name: v.Name, Fset: fset, test: map[*ast.File]bool{}}
	for _, name := range slices.Sorted(slices.Values(v.GoFiles)) {
		f, err := parser.ParseFile(fset, filepath.Join(v.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		u.Files = append(u.Files, f)
		if strings.HasSuffix(name, "_test.go") {
			u.test[f] = true
		}
		dirs, bad := parseIgnores(fset, f)
		u.ignores = append(u.ignores, dirs...)
		u.badIgnores = append(u.badIgnores, bad...)
	}
	return u, nil
}

// exportLookup opens the export data v's imports were compiled against.
// An X_test package's ImportMap sends the package under test (and anything
// importing it) to its test variant.
func exportLookup(v *listed, byPath map[string]*listed) func(string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		if id, ok := v.ImportMap[path]; ok {
			path = id
		}
		if p := byPath[path]; p != nil && p.Export != "" {
			return os.Open(p.Export)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	}
}

func typecheck(u *Unit, imp types.Importer) error {
	var errs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { errs = append(errs, err) },
	}
	u.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	pkg, err := conf.Check(u.Path, u.Fset, u.Files, u.Info)
	if len(errs) > 0 {
		limit := errs
		if len(limit) > 5 {
			limit = limit[:5]
		}
		msgs := make([]string, len(limit))
		for i, e := range limit {
			msgs[i] = e.Error()
		}
		return fmt.Errorf("type-checking %s (%s): %s", u.Path, u.Name, strings.Join(msgs, "; "))
	}
	if err != nil {
		return fmt.Errorf("type-checking %s (%s): %v", u.Path, u.Name, err)
	}
	u.Pkg = pkg
	return nil
}
