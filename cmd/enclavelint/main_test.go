package main

import (
	"encoding/json"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"enclaves/internal/analyzers"
)

// TestRunCleanTree is the end-to-end gate test: the driver itself (flag
// parsing, loading, scoping, exit code) must report the repo clean, because
// CI runs exactly this — including the SARIF and bench artifacts the CI job
// archives.
func TestRunCleanTree(t *testing.T) {
	sarifPath := filepath.Join(t.TempDir(), "lint.sarif")
	findingsPath := filepath.Join(t.TempDir(), "lint-findings.json")
	benchPath := filepath.Join(t.TempDir(), "BENCH_lint.json")
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir("../.."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(cwd)

	var out, errOut strings.Builder
	if code := run([]string{"-sarif", sarifPath, "-findings", findingsPath, "-bench", benchPath, "./..."}, &out, &errOut); code != 0 {
		t.Fatalf("run(./...) = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if out.String() != "" {
		t.Errorf("clean tree produced output:\n%s", out.String())
	}

	// The SARIF log must carry the full rule set even on a clean run, and
	// zero results.
	raw, err := os.ReadFile(sarifPath)
	if err != nil {
		t.Fatalf("sarif artifact not written: %v", err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string           `json:"name"`
					Rules []map[string]any `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []any `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(raw, &log); err != nil {
		t.Fatalf("sarif is not JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 || log.Runs[0].Tool.Driver.Name != "enclavelint" {
		t.Errorf("malformed sarif header: %s", raw)
	}
	wantRules := len(analyzers.Registry())
	if got := len(log.Runs[0].Tool.Driver.Rules); got != wantRules {
		t.Errorf("sarif carries %d rules, want %d", got, wantRules)
	}
	if len(log.Runs[0].Results) != 0 {
		t.Errorf("clean tree produced sarif results: %s", raw)
	}

	// The findings artifact must be an empty array, not null.
	raw, err = os.ReadFile(findingsPath)
	if err != nil {
		t.Fatalf("findings artifact not written: %v", err)
	}
	var findings []map[string]any
	if err := json.Unmarshal(raw, &findings); err != nil {
		t.Fatalf("findings is not JSON: %v", err)
	}
	if strings.TrimSpace(string(raw)) == "null" || len(findings) != 0 {
		t.Errorf("clean tree findings artifact: %s", raw)
	}

	// The bench profile must time every registered analyzer.
	raw, err = os.ReadFile(benchPath)
	if err != nil {
		t.Fatalf("bench artifact not written: %v", err)
	}
	var bench struct {
		Go        string  `json:"go"`
		TotalMS   float64 `json:"total_ms"`
		Analyzers []struct {
			Analyzer string  `json:"analyzer"`
			Millis   float64 `json:"ms"`
		} `json:"analyzers"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatalf("bench is not JSON: %v", err)
	}
	if bench.Go == "" || bench.TotalMS <= 0 {
		t.Errorf("bench missing go version or total time: %s", raw)
	}
	timed := map[string]bool{}
	for _, e := range bench.Analyzers {
		timed[e.Analyzer] = true
	}
	for _, a := range analyzers.Registry() {
		if !timed[a.Name] {
			t.Errorf("bench profile is missing analyzer %s", a.Name)
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-definitely-not-a-flag"}, &out, &errOut); code != 2 {
		t.Fatalf("bad flag: run() = %d, want 2", code)
	}
}

func TestRunBadPattern(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"./does-not-exist"}, &out, &errOut); code != 2 {
		t.Fatalf("missing dir: run() = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "enclavelint:") {
		t.Errorf("load error not reported: %q", errOut.String())
	}
}

func sampleDiags() []analyzers.Diagnostic {
	return []analyzers.Diagnostic{{
		Analyzer: "lockorder",
		Pos:      token.Position{Filename: "/repo/internal/group/group.go", Line: 42, Column: 7},
		Message:  "AEAD Cipher.Seal while holding l.mu",
	}}
}

// TestWriteSARIFFindings checks the result rendering path the clean-tree
// test cannot reach: a finding must become an error-level result with a
// relative URI and 1-based region.
func TestWriteSARIFFindings(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lint.sarif")
	if err := writeSARIF(path, sampleDiags(), "/repo"); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Runs []struct {
			Results []struct {
				RuleID  string `json:"ruleId"`
				Level   string `json:"level"`
				Message struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					Physical struct {
						Artifact struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(raw, &log); err != nil {
		t.Fatalf("sarif is not JSON: %v", err)
	}
	if len(log.Runs) != 1 || len(log.Runs[0].Results) != 1 {
		t.Fatalf("want exactly one result: %s", raw)
	}
	r := log.Runs[0].Results[0]
	loc := r.Locations[0].Physical
	if r.RuleID != "lockorder" || r.Level != "error" ||
		loc.Artifact.URI != "internal/group/group.go" ||
		loc.Region.StartLine != 42 || loc.Region.StartColumn != 7 {
		t.Errorf("unexpected sarif result: %s", raw)
	}
}

func TestEmitGitHubAnnotations(t *testing.T) {
	var out strings.Builder
	emit(sampleDiags(), false, true, "/repo", &out)
	want := "::error file=internal/group/group.go,line=42,col=7,title=enclavelint/lockorder::AEAD Cipher.Seal while holding l.mu\n"
	if out.String() != want {
		t.Errorf("github annotation:\ngot  %q\nwant %q", out.String(), want)
	}
}

func TestEmitJSON(t *testing.T) {
	var out strings.Builder
	emit(sampleDiags(), true, false, "/repo", &out)
	var parsed []map[string]any
	if err := json.Unmarshal([]byte(out.String()), &parsed); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if len(parsed) != 1 || parsed[0]["analyzer"] != "lockorder" || parsed[0]["line"] != float64(42) {
		t.Errorf("unexpected JSON payload: %s", out.String())
	}
}

func TestEmitPlain(t *testing.T) {
	var out strings.Builder
	emit(sampleDiags(), false, false, "/repo", &out)
	want := "internal/group/group.go:42:7: lockorder: AEAD Cipher.Seal while holding l.mu\n"
	if out.String() != want {
		t.Errorf("plain output:\ngot  %q\nwant %q", out.String(), want)
	}
}
