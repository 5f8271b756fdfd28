// Package analyzers implements enclavelint, a static-analysis layer that
// machine-checks the code-level invariants this reproduction has accumulated:
// never seal under a protocol lock (PR 2) and take locks in the declared
// order, always use the cached AEAD on hot paths (PR 3), never draw crypto
// material from math/rand, handle every wire message type exhaustively,
// never reuse a nonce, and never let key bytes reach logs, errors or audit
// events.
//
// There is one analyzer kind: every Analyzer runs over the whole Module and
// every finding is scoped by its file's package. Three are syntactic checks
// that range over the module's units (cryptorand, cachedcipher,
// wireexhaustive). The other three (keytaint, noncereuse, lockorder) are
// flow analyses on one engine: a statement walker (flow.go) threads a
// lattice state through each function body, and solve (callgraph.go) carries
// per-function summaries across call edges to a fixpoint. Each flow analyzer
// is its lattice — clone, join, loop passes, transfer hooks — plus its sink
// and report rules.
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Reportf, testdata corpora with // want comments) but is
// built entirely on the standard library: the module is intentionally
// dependency-free, so loading and type-checking go through go/parser,
// go/types and go/importer's source importer instead of go/packages.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"time"
)

// An Analyzer is one named invariant check. Run inspects the Module and
// reports findings through the Pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// A Pass carries one (Analyzer, Module) pairing through an analysis run.
type Pass struct {
	Analyzer *Analyzer
	Module   *Module

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Module.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// IgnorePrefix introduces a justified exemption comment:
//
//	//enclavelint:ignore lockorder reason the caller cannot observe ordering otherwise
//
// The directive suppresses matching diagnostics reported on its own line or
// the line directly below it. The analyzer list is comma-separated; the
// free-text justification is mandatory — a bare directive is itself reported.
const IgnorePrefix = "//enclavelint:ignore"

// badDirectiveAnalyzer attributes malformed, misplaced and stale directives.
const badDirectiveAnalyzer = "enclavelint"

type ignoreDirective struct {
	file      string
	line      int
	analyzers map[string]bool
	reason    string
	pos       token.Pos
}

// directivePrefix introduces every enclavelint directive.
const directivePrefix = "//enclavelint:"

// parseIgnores scans a file's comments for ignore directives. Malformed
// directives are returned as diagnostics, so none is ever silently dropped:
// an ignore with no analyzer names or no justification (an exemption must
// never lose its reason), a guardedby anywhere but a function's doc comment
// (where it would check nothing), and an unknown verb.
func parseIgnores(fset *token.FileSet, f *ast.File) ([]ignoreDirective, []Diagnostic) {
	onFunc := map[*ast.Comment]bool{}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Doc != nil {
			for _, c := range fd.Doc.List {
				onFunc[c] = true
			}
		}
	}
	var dirs []ignoreDirective
	var bad []Diagnostic
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			body, ok := strings.CutPrefix(c.Text, directivePrefix)
			if !ok {
				continue
			}
			report := func(format string, args ...any) {
				bad = append(bad, Diagnostic{
					Analyzer: badDirectiveAnalyzer,
					Pos:      fset.Position(c.Pos()),
					Message:  fmt.Sprintf(format, args...),
				})
			}
			fields := strings.Fields(body)
			dir := directivePrefix
			if len(fields) > 0 {
				dir, fields = dir+fields[0], fields[1:]
			}
			switch {
			case dir == LockOrderAnnotation || dir == FreshAnnotation:
			case dir == GuardedByAnnotation:
				if !onFunc[c] {
					report("guardedby directive is not on a function's doc comment, so it checks nothing: move it to the function whose callers hold the lock, or make it a plain comment")
				}
			case dir != IgnorePrefix:
				report("unknown directive %s (want ignore, lockorder, guardedby or fresh): it is ignored", dir)
			case len(fields) == 0:
				report("ignore directive names no analyzers (want //enclavelint:ignore <analyzer,...> <justification>)")
			case len(fields) < 2:
				report("ignore directive for %q has no justification; exemptions must say why", fields[0])
			default:
				names := map[string]bool{}
				for _, n := range strings.Split(fields[0], ",") {
					if n != "" {
						names[n] = true
					}
				}
				pos := fset.Position(c.Pos())
				dirs = append(dirs, ignoreDirective{
					file:      pos.Filename,
					line:      pos.Line,
					analyzers: names,
					reason:    strings.Join(fields[1:], " "),
					pos:       c.Pos(),
				})
			}
		}
	}
	return dirs, bad
}

// suppressed reports whether d is covered by a well-formed ignore directive
// on the same line or the line above.
func suppressed(d Diagnostic, dirs []ignoreDirective) bool {
	return suppressedBy(d, dirs) >= 0
}

// suppressedBy returns the index of the first directive covering d (same
// file, matching analyzer, same line or the line above), or -1. The index
// lets Check track which directives actually suppress something, so a stale
// exemption — its finding fixed, or its analyzer renamed — is itself
// reported instead of rotting silently.
func suppressedBy(d Diagnostic, dirs []ignoreDirective) int {
	for i, dir := range dirs {
		if dir.file != d.Pos.Filename || !dir.analyzers[d.Analyzer] {
			continue
		}
		if dir.line == d.Pos.Line || dir.line == d.Pos.Line-1 {
			return i
		}
	}
	return -1
}

func run(a *Analyzer, m *Module) []Diagnostic {
	var raw []Diagnostic
	a.Run(&Pass{Analyzer: a, Module: m, diags: &raw})
	return raw
}

// A Timing records the wall time one analyzer spent on the whole module.
type Timing struct {
	Analyzer string  `json:"analyzer"`
	Millis   float64 `json:"ms"`
}

// Check runs every registered analyzer over the module and returns the
// findings in the packages each is scoped to, including malformed-directive
// reports and stale-suppression reports (a directive that suppressed
// nothing across the whole run has lost its reason to exist: its finding
// was fixed, or its analyzer was renamed).
func Check(units []*Unit) []Diagnostic {
	diags, _ := CheckTimed(units)
	return diags
}

// CheckTimed is Check plus a per-analyzer wall-time profile, for the
// CI-archived lint benchmark artifact.
func CheckTimed(units []*Unit) ([]Diagnostic, []Timing) {
	mod := BuildModule(units)
	used := make([]bool, len(mod.ignores))
	var out []Diagnostic
	for _, u := range units {
		out = append(out, u.badIgnores...)
	}
	var timings []Timing
	for _, sa := range Registry() {
		start := time.Now()
		raw := run(sa.Analyzer, mod)
		timings = append(timings, Timing{Analyzer: sa.Name, Millis: float64(time.Since(start).Microseconds()) / 1e3})
		for _, d := range raw {
			if !sa.Applies(mod.PathOfFile(d.Pos.Filename)) {
				continue
			}
			if j := suppressedBy(d, mod.ignores); j >= 0 {
				used[j] = true
			} else {
				out = append(out, d)
			}
		}
	}
	out = append(out, staleDirectives(mod, used)...)
	sortDiagnostics(out)
	return out, timings
}

// staleDirectives reports well-formed ignore directives that earned no keep:
// ones naming analyzers that do not exist (renamed or typoed), and ones that
// suppressed no diagnostic in this run (the finding was fixed).
func staleDirectives(mod *Module, used []bool) []Diagnostic {
	known := map[string]bool{}
	for _, sa := range Registry() {
		known[sa.Name] = true
	}
	var out []Diagnostic
	for i, dir := range mod.ignores {
		var unknown []string
		for name := range dir.analyzers {
			if !known[name] {
				unknown = append(unknown, name)
			}
		}
		sort.Strings(unknown)
		pos := token.Position{Filename: dir.file, Line: dir.line}
		if p := mod.Fset; p != nil {
			pos = p.Position(dir.pos)
		}
		switch {
		case len(unknown) > 0:
			out = append(out, Diagnostic{
				Analyzer: badDirectiveAnalyzer,
				Pos:      pos,
				Message:  fmt.Sprintf("ignore directive names unknown analyzer(s) %s: renamed or never existed; fix or delete the exemption", strings.Join(unknown, ", ")),
			})
		case !used[i]:
			out = append(out, Diagnostic{
				Analyzer: badDirectiveAnalyzer,
				Pos:      pos,
				Message:  fmt.Sprintf("stale ignore directive: no %s diagnostic is suppressed here anymore; the finding was fixed or moved — delete the exemption", analyzerList(dir.analyzers)),
			})
		}
	}
	return out
}

func analyzerList(names map[string]bool) string {
	out := make([]string, 0, len(names))
	for n := range names {
		out = append(out, n)
	}
	sort.Strings(out)
	return strings.Join(out, ",")
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
