// Command enclavelint runs the protocol-invariant analyzers over the
// module: the code-level analogues of the paper's machine-checked secrecy
// invariants. All five come from one registry and run over the whole module,
// each gating the packages it is scoped to. Four are syntactic checks
// (crypto/rand only, cached AEADs on hot paths, exhaustive wire-type
// handling, and keytaint: no key-named bytes in logs, errors or events);
// lockorder is a flow analysis — a statement walker and a summary fixpoint
// that follow locks across call edges — for the declared lock order and no
// seal or send under a lock. Raw key bytes reaching the network only sealed,
// and every fresh nonce being a new draw, are enforced by crypto's types,
// not by a lint.
//
// Usage:
//
//	go run ./cmd/enclavelint [-json|-github] [-sarif file] [-findings file] [-bench file] [packages]
//
// Packages default to ./... and support the same /... suffix as the go
// tool. The file flags write machine-readable artifacts alongside whatever
// stdout format is selected, so one gating CI run produces annotations and
// archives: -sarif a SARIF 2.1.0 log, -findings the same JSON array -json
// prints, -bench a wall-time profile (per analyzer, module-wide). Exit
// status: 0 clean, 1 findings, 2 load/usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"enclaves/internal/analyzers"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("enclavelint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	github := fs.Bool("github", false, "emit findings as GitHub Actions ::error annotations")
	sarifPath := fs.String("sarif", "", "also write findings as SARIF 2.1.0 to `file`")
	findingsPath := fs.String("findings", "", "also write findings as a JSON array to `file`")
	benchPath := fs.String("bench", "", "also write a per-analyzer wall-time profile to `file`")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loadStart := time.Now()
	units, err := analyzers.Load(patterns)
	if err != nil {
		fmt.Fprintf(stderr, "enclavelint: %v\n", err)
		return 2
	}
	loadMS := float64(time.Since(loadStart).Microseconds()) / 1e3
	checkStart := time.Now()
	diags, timings := analyzers.CheckTimed(units)
	checkMS := float64(time.Since(checkStart).Microseconds()) / 1e3
	cwd, _ := os.Getwd()
	emit(diags, *jsonOut, *github, cwd, stdout)
	if *sarifPath != "" {
		if err := writeSARIF(*sarifPath, diags, cwd); err != nil {
			fmt.Fprintf(stderr, "enclavelint: writing sarif: %v\n", err)
			return 2
		}
	}
	if *findingsPath != "" {
		if err := writeJSON(*findingsPath, jsonFindings(diags, cwd)); err != nil {
			fmt.Fprintf(stderr, "enclavelint: writing findings: %v\n", err)
			return 2
		}
	}
	if *benchPath != "" {
		if err := writeBench(*benchPath, timings, len(units), len(diags), loadMS, checkMS); err != nil {
			fmt.Fprintf(stderr, "enclavelint: writing bench: %v\n", err)
			return 2
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "enclavelint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// finding is the JSON shape of one diagnostic, shared by -json stdout
// output and the -findings artifact.
type finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// jsonFindings converts diagnostics to their JSON shape with cwd-relative
// paths. Always non-nil so a clean run serializes as [] rather than null.
func jsonFindings(diags []analyzers.Diagnostic, cwd string) []finding {
	out := make([]finding, 0, len(diags))
	for _, d := range diags {
		out = append(out, finding{
			Analyzer: d.Analyzer,
			File:     relPath(cwd, d.Pos.Filename),
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Message:  d.Message,
		})
	}
	return out
}

// emit renders findings in the selected format: plain file:line:col lines,
// a JSON array, or GitHub Actions ::error annotations.
func emit(diags []analyzers.Diagnostic, jsonOut, github bool, cwd string, stdout io.Writer) {
	switch {
	case jsonOut:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		enc.Encode(jsonFindings(diags, cwd))
	case github:
		for _, d := range diags {
			fmt.Fprintf(stdout, "::error file=%s,line=%d,col=%d,title=enclavelint/%s::%s\n",
				relPath(cwd, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		}
	default:
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n",
				relPath(cwd, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		}
	}
}

// SARIF 2.1.0 structures — only the subset code-scanning consumers read.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID        string    `json:"id"`
	ShortDesc sarifText `json:"shortDescription"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	Physical sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	Artifact sarifArtifact `json:"artifactLocation"`
	Region   sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

// writeSARIF renders the findings as a SARIF 2.1.0 log: one run, one rule
// per registered analyzer (so clean runs still publish the rule set), one
// error-level result per finding.
func writeSARIF(path string, diags []analyzers.Diagnostic, cwd string) error {
	var rules []sarifRule
	for _, a := range analyzers.Registry() {
		rules = append(rules, sarifRule{ID: a.Name, ShortDesc: sarifText{Text: firstLine(a.Doc)}})
	}
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		results = append(results, sarifResult{
			RuleID:  d.Analyzer,
			Level:   "error",
			Message: sarifText{Text: d.Message},
			Locations: []sarifLocation{{Physical: sarifPhysical{
				Artifact: sarifArtifact{URI: relPath(cwd, d.Pos.Filename)},
				Region:   sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
			}}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "enclavelint", Rules: rules}},
			Results: results,
		}},
	}
	return writeJSON(path, log)
}

// writeBench renders the wall-time profile CI archives next to the runtime
// benchmark snapshots, stamped like them with go version, GOMAXPROCS and
// the commit checked out.
func writeBench(path string, timings []analyzers.Timing, packages, findings int, loadMS, checkMS float64) error {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	out := struct {
		Go         string             `json:"go"`
		GOMAXPROCS int                `json:"gomaxprocs"`
		Commit     string             `json:"commit"`
		Packages   int                `json:"packages"`
		Findings   int                `json:"findings"`
		LoadMS     float64            `json:"load_ms"`
		CheckMS    float64            `json:"check_ms"`
		TotalMS    float64            `json:"total_ms"`
		Analyzers  []analyzers.Timing `json:"analyzers"`
	}{
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     commit,
		Packages:   packages,
		Findings:   findings,
		LoadMS:     loadMS,
		CheckMS:    checkMS,
		TotalMS:    loadMS + checkMS,
		Analyzers:  timings,
	}
	return writeJSON(path, out)
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// firstLine trims an analyzer doc to its first sentence-ish line for the
// SARIF rule table.
func firstLine(doc string) string {
	for i := 0; i < len(doc); i++ {
		if doc[i] == '\n' {
			return doc[:i]
		}
	}
	return doc
}

// relPath makes file paths cwd-relative so editor links, GitHub
// annotations, and SARIF artifact URIs resolve.
func relPath(cwd, path string) string {
	if cwd == "" {
		return path
	}
	if rel, err := filepath.Rel(cwd, path); err == nil && !filepath.IsAbs(rel) {
		return filepath.ToSlash(rel)
	}
	return path
}
