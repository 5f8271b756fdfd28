package analyzers

// An analysistest-style harness: each analyzer has a corpus under
// testdata/src/<name>/ whose files carry trailing `// want "regexp"`
// comments on the lines where diagnostics are expected. The corpus is
// loaded and type-checked exactly like real code (it may import real repo
// packages), the analyzer runs, and the harness cross-checks diagnostics
// against wants in both directions: a missing diagnostic and an unexpected
// diagnostic are both failures.

import (
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// wantTokenRE extracts the quoted or backquoted regexps of a want comment.
var wantTokenRE = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

var wantCommentRE = regexp.MustCompile(`// want (.+)$`)

type want struct {
	file string
	line int
	re   *regexp.Regexp
	used bool
}

// runCorpus loads testdata/src/<corpus> as a module and checks a's
// findings (plus malformed-ignore-directive reports) against its want
// comments.
func runCorpus(t *testing.T, a *Analyzer, corpus string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", corpus)
	units, err := LoadDir(dir, "enclavelint/corpus/"+corpus)
	if err != nil {
		t.Fatalf("loading corpus %s: %v", corpus, err)
	}
	if len(units) == 0 {
		t.Fatalf("corpus %s has no Go packages", corpus)
	}
	diags := RunAnalyzer(a, BuildModule(units))
	var wants []*want
	for _, u := range units {
		diags = append(diags, u.badIgnores...)
		wants = append(wants, collectWants(t, u)...)
	}
	for _, d := range diags {
		if !claimWant(wants, d) {
			t.Errorf("%s: unexpected diagnostic: %s", corpus, d)
		}
	}
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s: %s:%d: no diagnostic matched want %q", corpus, w.file, w.line, w.re)
		}
	}
}

func collectWants(t *testing.T, u *Unit) []*want {
	t.Helper()
	var wants []*want
	for _, f := range u.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantCommentRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := u.Fset.Position(c.Pos())
				toks := wantTokenRE.FindAllString(m[1], -1)
				if len(toks) == 0 {
					t.Fatalf("%s:%d: want comment with no pattern", pos.Filename, pos.Line)
				}
				for _, tok := range toks {
					var pat string
					if tok[0] == '`' {
						pat = tok[1 : len(tok)-1]
					} else {
						var err error
						pat, err = strconv.Unquote(tok)
						if err != nil {
							t.Fatalf("%s:%d: bad want token %s: %v", pos.Filename, pos.Line, tok, err)
						}
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

func claimWant(wants []*want, d Diagnostic) bool {
	for _, w := range wants {
		if w.used || w.file != d.Pos.Filename || w.line != d.Pos.Line {
			continue
		}
		if w.re.MatchString(d.Message) {
			w.used = true
			return true
		}
	}
	return false
}
