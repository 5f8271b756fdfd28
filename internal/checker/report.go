package checker

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"enclaves/internal/model"
)

// Report bundles a full verification run: the Section 5 obligations over the
// improved protocol, the concurrently-explored extension ablations, and the
// Section 2.3 attack findings over the legacy baseline. cmd/verify renders
// it; EXPERIMENTS.md records it.
type Report struct {
	Config      model.Config
	States      int
	Transitions int
	Depth       int
	Improved    []Obligation
	// Diagram is the Figure 4 check, nil when Config enables failover or
	// LKH.
	Diagram *DiagramResult

	// Extensions are the ablation configurations explored concurrently with
	// the main run: the failover+LKH configuration (making the 5.5 and 5.6
	// obligations non-vacuous) and the intruder-sessions configuration (the
	// attacker as a participant), each skipped when the main Config already
	// enables it.
	Extensions []ExtensionReport

	LegacyConfig model.LegacyConfig
	LegacyStates int
	LegacyDepth  int
	Legacy       []Obligation

	// Elapsed is the wall time of the whole run (all explorations overlap).
	Elapsed time.Duration
}

// ExtensionReport is one ablation configuration verified alongside the main
// run. It reports the ablation's invariants; Figure 4 is reported for the
// main run only.
type ExtensionReport struct {
	Name        string
	Config      model.Config
	States      int
	Transitions int
	Depth       int
	Obligations []Obligation
}

// Run performs the complete verification: explore the improved model, check
// every invariant and the verification diagram, explore the extension
// ablations and the legacy model concurrently, and collect the attacks.
// Each exploration is sequential; running them side by side is what uses
// more than one core.
func Run(cfg model.Config, legacyCfg model.LegacyConfig) *Report {
	start := time.Now()
	rep := &Report{Config: cfg, LegacyConfig: legacyCfg}

	exts := extensionConfigs(cfg)
	rep.Extensions = make([]ExtensionReport, len(exts))

	var wg sync.WaitGroup
	wg.Add(2 + len(exts))

	go func() {
		defer wg.Done()
		ex := Explore(cfg, nil, nil)
		rep.States, rep.Transitions, rep.Depth = ex.States, ex.Transitions, ex.Depth
		rep.Improved, rep.Diagram = ex.Obligations, ex.Diagram
		if ex.Diagram != nil {
			rep.Improved = append(rep.Improved, ex.Diagram.Obligations...)
		}
	}()

	for i, e := range exts {
		go func(i int, name string, ecfg model.Config) {
			defer wg.Done()
			ex := Explore(ecfg, nil, nil)
			rep.Extensions[i] = ExtensionReport{
				Name:        name,
				Config:      ecfg,
				States:      ex.States,
				Transitions: ex.Transitions,
				Depth:       ex.Depth,
				Obligations: ex.Obligations,
			}
		}(i, e.name, e.cfg)
	}

	go func() {
		defer wg.Done()
		lex := ExploreLegacy(legacyCfg, nil)
		rep.LegacyStates = lex.States
		rep.LegacyDepth = lex.Depth
		rep.Legacy = LegacyObligations(lex)
	}()

	wg.Wait()
	rep.Elapsed = time.Since(start)
	return rep
}

type namedConfig struct {
	name string
	cfg  model.Config
}

// extensionConfigs derives the ablation configurations for cfg: the
// failover+LKH run (5.5 and 5.6 non-vacuous) and the intruder-sessions run,
// each only when the main configuration doesn't already cover it. Weakness
// flags carry over so mutation runs stay mutated everywhere.
func extensionConfigs(cfg model.Config) []namedConfig {
	var out []namedConfig
	if !cfg.Failover || !cfg.LKH {
		e := cfg
		e.Failover = true
		e.LKH = true
		out = append(out, namedConfig{"failover+lkh", e})
	}
	if !cfg.IntruderSessions {
		e := cfg
		e.IntruderSessions = true
		out = append(out, namedConfig{"intruder-sessions", e})
	}
	return out
}

// TotalStates is the number of distinct states explored across the improved
// run and every extension ablation (the legacy search is counted
// separately, as in the paper).
func (r *Report) TotalStates() int {
	total := r.States
	for _, e := range r.Extensions {
		total += e.States
	}
	return total
}

// StatesPerSec is the aggregate exploration throughput of the run.
func (r *Report) StatesPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.TotalStates()) / r.Elapsed.Seconds()
}

// AllHold reports whether every improved-protocol obligation is discharged
// (including over every extension ablation) and every legacy attack was
// found.
func (r *Report) AllHold() bool {
	for _, o := range r.Improved {
		if !o.Holds {
			return false
		}
	}
	for _, e := range r.Extensions {
		for _, o := range e.Obligations {
			if !o.Holds {
				return false
			}
		}
	}
	for _, o := range r.Legacy {
		if !o.Holds {
			return false
		}
	}
	return true
}

// String renders the report in the style of Section 5 / Section 2.3.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Improved Enclaves protocol (Section 3.2) — bounded verification\n")
	fmt.Fprintf(&b, "  bounds: %d user sessions, %d admin messages/session\n", r.Config.MaxSessions, r.Config.MaxAdmin)
	fmt.Fprintf(&b, "  reachable states: %d   transitions: %d   max depth: %d\n", r.States, r.Transitions, r.Depth)
	if r.Elapsed > 0 {
		fmt.Fprintf(&b, "  wall time: %s   throughput: %.0f states/sec (%d states incl. ablations)\n",
			r.Elapsed.Round(time.Millisecond), r.StatesPerSec(), r.TotalStates())
	}
	b.WriteByte('\n')
	for _, o := range r.Improved {
		fmt.Fprintln(&b, o)
	}

	for _, e := range r.Extensions {
		fmt.Fprintf(&b, "\nAblation %q — states: %d   transitions: %d   depth: %d\n",
			e.Name, e.States, e.Transitions, e.Depth)
		for _, o := range e.Obligations {
			fmt.Fprintln(&b, o)
		}
	}

	if r.Diagram != nil {
		fmt.Fprintf(&b, "\nVerification diagram (Figure 4) — observed box occupancy:\n")
		ids := make([]string, 0, len(r.Diagram.BoxCounts))
		for id := range r.Diagram.BoxCounts {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool {
			if len(ids[i]) != len(ids[j]) {
				return len(ids[i]) < len(ids[j])
			}
			return ids[i] < ids[j]
		})
		for _, id := range ids {
			fmt.Fprintf(&b, "  %-4s %6d states\n", id, r.Diagram.BoxCounts[id])
		}
		fmt.Fprintf(&b, "\nObserved diagram edges:\n%s", r.Diagram.AdjacencyTable())
	}

	fmt.Fprintf(&b, "\nLegacy Enclaves protocol (Section 2.2) — attack search (Section 2.3)\n")
	fmt.Fprintf(&b, "  bounds: %d rekeys; insider E initially a member\n", r.LegacyConfig.MaxRekeys)
	fmt.Fprintf(&b, "  reachable states: %d   max depth: %d\n\n", r.LegacyStates, r.LegacyDepth)
	for _, o := range r.Legacy {
		WriteLegacyAttack(&b, o)
	}
	return b.String()
}

// WriteLegacyAttack prints one legacy attack obligation: its verdict line
// and, when found, the shortest attack trace. cmd/verify and cmd/attackdemo
// share it.
func WriteLegacyAttack(w io.Writer, o Obligation) {
	verdict := "ATTACK FOUND (paper confirmed)"
	if !o.Holds {
		verdict = "NOT FOUND (disagrees with paper)"
	}
	fmt.Fprintf(w, "[%s] %-60s %s\n", o.ID, o.Name, verdict)
	if len(o.Witness) > 0 {
		fmt.Fprintf(w, "    shortest attack (%s):\n", o.Detail)
		for _, step := range o.Witness {
			fmt.Fprintf(w, "      %s\n", step)
		}
	}
}
