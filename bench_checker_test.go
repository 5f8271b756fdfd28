// Experiment B4' (DESIGN.md): parallel model-checker scale-up. The sweep
// explores representative configurations at every worker count up to
// GOMAXPROCS and records throughput to BENCH_checker.json, so CI archives
// the states/sec trajectory of the Section 5 verification the same way it
// tracks the runtime benches. The per-config speedup column compares
// against the workers=1 run of the same invocation. Run it with -cpu 1,2
// to record both rows; the (3,2) configuration needs more than 8 GiB.
package enclaves

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"enclaves/internal/checker"
	"enclaves/internal/model"
)

// benchWorkerCounts returns the worker sweep for this machine: 1, 2, 4, …
// up to GOMAXPROCS (always including GOMAXPROCS itself). On a single-core
// runner the sweep degenerates to {1}, and the recorded gomaxprocs column
// says so.
func benchWorkerCounts() []int {
	g := runtime.GOMAXPROCS(0)
	var out []int
	for w := 1; w < g; w *= 2 {
		out = append(out, w)
	}
	return append(out, g)
}

// BenchmarkExplore sweeps the parallel BFS over the headline configurations
// — base (2,2), the LKH+failover extension at (2,2) (the acceptance
// configuration for the parallel checker), and one bound notch deeper — at
// every worker count, reporting states, depth, and states/sec, and
// recording the sweep in BENCH_checker.json.
func BenchmarkExplore(b *testing.B) {
	configs := []struct {
		name string
		cfg  model.Config
	}{
		{"base_s2_a2", model.Config{MaxSessions: 2, MaxAdmin: 2}},
		{"lkh_s2_a2", model.Config{MaxSessions: 2, MaxAdmin: 2, LKH: true, Failover: true}},
		{"lkh_s3_a2", model.Config{MaxSessions: 3, MaxAdmin: 2, LKH: true, Failover: true}},
	}
	for _, c := range configs {
		seqStatesPerSec := 0.0
		for _, workers := range benchWorkerCounts() {
			b.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(b *testing.B) {
				var ex *checker.Exploration
				b.ReportAllocs()
				start := time.Now()
				for i := 0; i < b.N; i++ {
					ex = checker.ExploreOpts(c.cfg, checker.Options{Workers: workers})
				}
				elapsed := time.Since(start)
				for _, o := range checker.AllInvariants(ex) {
					if !o.Holds {
						b.Fatalf("invariant failed: %s", o)
					}
				}
				statesPerSec := float64(len(ex.Nodes)*b.N) / elapsed.Seconds()
				if workers == 1 {
					seqStatesPerSec = statesPerSec
				}
				speedup := 0.0
				if seqStatesPerSec > 0 {
					speedup = statesPerSec / seqStatesPerSec
				}
				b.ReportMetric(float64(len(ex.Nodes)), "states")
				b.ReportMetric(statesPerSec, "states/sec")
				b.ReportMetric(speedup, "speedup")
				recordBench(b, "BENCH_checker.json", "explore_sweep", map[string]any{
					"sessions":          c.cfg.MaxSessions,
					"admin":             c.cfg.MaxAdmin,
					"lkh":               c.cfg.LKH,
					"intruder_sessions": c.cfg.IntruderSessions,
					"workers":           workers,
					"states":            len(ex.Nodes),
					"transitions":       ex.Transitions,
					"depth":             ex.Depth,
					"states_per_sec":    statesPerSec,
					"speedup_vs_seq":    speedup,
					"ns_per_op":         elapsed.Nanoseconds() / int64(b.N),
				}, "sessions", "admin", "lkh", "intruder_sessions", "workers")
			})
		}
	}
}
