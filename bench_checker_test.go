// Experiment B4' (DESIGN.md): model-checker throughput. BenchmarkExplore
// explores representative configurations with the sequential search and
// records states/sec to BENCH_checker.json, so CI archives the trajectory of
// the Section 5 verification the same way it tracks the runtime benches.
// Rows are keyed by configuration and GOMAXPROCS; record each GOMAXPROCS in
// its own process. The (3,2) configuration needs more than 8 GiB.
package enclaves

import (
	"testing"
	"time"

	"enclaves/internal/checker"
	"enclaves/internal/model"
)

// BenchmarkExplore explores the headline configurations — base (2,2), the
// LKH+failover extension at (2,2), and one bound notch deeper — reporting
// states and states/sec, and recording one row per configuration in
// BENCH_checker.json.
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
		b.Run(c.name, func(b *testing.B) {
			var ex *checker.Exploration
			b.ReportAllocs()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				ex = checker.ExploreOpts(c.cfg, checker.Options{})
			}
			elapsed := time.Since(start)
			for _, o := range checker.AllInvariants(ex) {
				if !o.Holds {
					b.Fatalf("invariant failed: %s", o)
				}
			}
			statesPerSec := float64(len(ex.Nodes)*b.N) / elapsed.Seconds()
			b.ReportMetric(float64(len(ex.Nodes)), "states")
			b.ReportMetric(statesPerSec, "states/sec")
			recordBench(b, "BENCH_checker.json", "explore_sweep", map[string]any{
				"sessions":          c.cfg.MaxSessions,
				"admin":             c.cfg.MaxAdmin,
				"lkh":               c.cfg.LKH,
				"intruder_sessions": c.cfg.IntruderSessions,
				"states":            len(ex.Nodes),
				"transitions":       ex.Transitions,
				"depth":             ex.Depth,
				"states_per_sec":    statesPerSec,
				"ns_per_op":         elapsed.Nanoseconds() / int64(b.N),
			}, "sessions", "admin", "lkh", "intruder_sessions")
		})
	}
}
