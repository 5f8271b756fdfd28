package analyzers

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

func TestCryptoRandCorpus(t *testing.T)     { runCorpus(t, CryptoRand, "cryptorand") }
func TestCachedCipherCorpus(t *testing.T)   { runCorpus(t, CachedCipher, "cachedcipher") }
func TestWireExhaustiveCorpus(t *testing.T) { runCorpus(t, WireExhaustive, "wireexhaustive") }
func TestKeyTaintCorpus(t *testing.T)       { runCorpus(t, KeyTaint, "keytaint") }
func TestLockOrderCorpus(t *testing.T)      { runCorpus(t, LockOrder, "lockorder") }

// The keyhygiene and sealunderlock corpora seed keytaint's logging sinks
// and lockorder's seal rule, under the names of the analyzers that once
// owned those rules.
func TestKeyHygieneCorpus(t *testing.T)    { runCorpus(t, KeyTaint, "keyhygiene") }
func TestSealUnderLockCorpus(t *testing.T) { runCorpus(t, LockOrder, "sealunderlock") }

// TestIgnoreDirectiveParsing pins the exemption grammar: analyzers list and
// a mandatory free-text justification.
func TestIgnoreDirectiveParsing(t *testing.T) {
	src := `package p

//enclavelint:ignore lockorder the caller is a cold path
var a int

//enclavelint:ignore lockorder,cachedcipher shared justification
var b int

//enclavelint:ignore
var c int

//enclavelint:ignore keytaint
var d int
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	dirs, bad := parseIgnores(fset, f)
	if len(dirs) != 2 {
		t.Fatalf("got %d well-formed directives, want 2", len(dirs))
	}
	if !dirs[0].analyzers["lockorder"] || dirs[0].reason == "" {
		t.Errorf("first directive parsed wrong: %+v", dirs[0])
	}
	if !dirs[1].analyzers["lockorder"] || !dirs[1].analyzers["cachedcipher"] {
		t.Errorf("comma-separated analyzer list parsed wrong: %+v", dirs[1])
	}
	if len(bad) != 2 {
		t.Fatalf("got %d malformed-directive reports, want 2: %v", len(bad), bad)
	}
	if !strings.Contains(bad[0].Message, "no analyzers") {
		t.Errorf("bare directive report: %s", bad[0].Message)
	}
	if !strings.Contains(bad[1].Message, "no justification") {
		t.Errorf("reasonless directive report: %s", bad[1].Message)
	}
}

// TestIgnoreSuppression pins the one-line reach of a directive: same line
// and the line below, same file, matching analyzer only.
func TestIgnoreSuppression(t *testing.T) {
	dirs := []ignoreDirective{{
		file:      "x.go",
		line:      10,
		analyzers: map[string]bool{"cachedcipher": true},
		reason:    "cold path",
	}}
	at := func(file string, line int, analyzer string) Diagnostic {
		return Diagnostic{Analyzer: analyzer, Pos: token.Position{Filename: file, Line: line}}
	}
	cases := []struct {
		d    Diagnostic
		want bool
	}{
		{at("x.go", 10, "cachedcipher"), true},
		{at("x.go", 11, "cachedcipher"), true},
		{at("x.go", 12, "cachedcipher"), false},
		{at("x.go", 9, "cachedcipher"), false},
		{at("x.go", 11, "lockorder"), false},
		{at("y.go", 11, "cachedcipher"), false},
	}
	for _, c := range cases {
		if got := suppressed(c.d, dirs); got != c.want {
			t.Errorf("suppressed(%s:%d %s) = %v, want %v", c.d.Pos.Filename, c.d.Pos.Line, c.d.Analyzer, got, c.want)
		}
	}
}

// TestStaleSuppression runs the full Check pipeline over a corpus of
// directives: one live ignore, one stale, one naming an unknown analyzer, a
// guardedby on a struct field, and a misspelled verb. The corpus is loaded
// under a scoped import path so the analyzers actually run.
func TestStaleSuppression(t *testing.T) {
	dir := filepath.Join("testdata", "src", "staleignore")
	units, err := LoadDir(dir, pkgCore)
	if err != nil {
		t.Fatalf("loading corpus: %v", err)
	}
	kinds := []struct{ substr, names string }{
		{"stale ignore directive", "cryptorand"},
		{"unknown analyzer", "keyhygine"},
		{"guardedby directive is not on a function", ""},
		{"unknown directive", "//enclavelint:guardby"},
	}
	got := make([][]Diagnostic, len(kinds))
next:
	for _, d := range Check(units) {
		for i, k := range kinds {
			if strings.Contains(d.Message, k.substr) {
				got[i] = append(got[i], d)
				continue next
			}
		}
		// The live directive must keep suppressing: no cryptorand finding
		// may leak through, and nothing else should fire.
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for i, k := range kinds {
		if len(got[i]) != 1 {
			t.Errorf("got %d %q reports, want 1: %v", len(got[i]), k.substr, got[i])
		} else if !strings.Contains(got[i][0].Message, k.names) {
			t.Errorf("%q report does not name %s: %s", k.substr, k.names, got[i][0].Message)
		}
	}
}
