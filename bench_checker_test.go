// Experiment B4 (DESIGN.md): model-checker throughput. BenchmarkExplore
// runs the whole verification — the exhaustive search with every obligation
// checked as it goes — on each configuration of its table, and records one
// row per configuration in BENCH_checker.json, so CI archives the
// trajectory of the Section 5 verification the same way it tracks the
// runtime benches. Rows are keyed by configuration and GOMAXPROCS; record
// each GOMAXPROCS in its own process.
package enclaves

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"enclaves/internal/checker"
	"enclaves/internal/model"
)

// BenchmarkExplore verifies the legacy attack search, growing bounds of the
// base model, the intruder as a session participant, and the LKH+failover
// extension at (2,2) and one bound notch deeper. It fails if any obligation
// is violated or any legacy attack is missed, and reports states,
// states/sec, the bytes allocated per exploration and the process's peak
// RSS. The table runs in growing order of size, so each row's peak RSS is
// its own; a row run alone in its process reads exactly.
func BenchmarkExplore(b *testing.B) {
	improved := func(cfg model.Config) func(*testing.B) (states, transitions, depth int) {
		return func(b *testing.B) (int, int, int) {
			ex := checker.Explore(cfg, nil, nil)
			obs := ex.Obligations
			if ex.Diagram != nil {
				obs = append(obs, ex.Diagram.Obligations...)
			}
			for _, o := range obs {
				if !o.Holds {
					b.Fatalf("obligation failed: %s", o)
				}
			}
			return ex.States, ex.Transitions, ex.Depth
		}
	}
	configs := []struct {
		name    string
		explore func(*testing.B) (states, transitions, depth int)
	}{
		{"legacy_r2", func(b *testing.B) (int, int, int) {
			ex := checker.ExploreLegacy(model.DefaultLegacyConfig(), nil)
			for _, o := range checker.LegacyObligations(ex) {
				if !o.Holds {
					b.Fatalf("legacy attack %s not found: %s", o.ID, o.Detail)
				}
			}
			return ex.States, ex.Transitions, ex.Depth
		}},
		{"base_s1_a1", improved(model.Config{MaxSessions: 1, MaxAdmin: 1})},
		{"base_s2_a1", improved(model.Config{MaxSessions: 2, MaxAdmin: 1})},
		{"base_s2_a2", improved(model.Config{MaxSessions: 2, MaxAdmin: 2})},
		{"base_s3_a2", improved(model.Config{MaxSessions: 3, MaxAdmin: 2})},
		{"intruder_s2_a1", improved(model.Config{MaxSessions: 2, MaxAdmin: 1, IntruderSessions: true})},
		{"lkh_s2_a2", improved(model.Config{MaxSessions: 2, MaxAdmin: 2, LKH: true, Failover: true})},
		{"lkh_s3_a2", improved(model.Config{MaxSessions: 3, MaxAdmin: 2, LKH: true, Failover: true})},
	}
	for _, c := range configs {
		b.Run(c.name, func(b *testing.B) {
			var states, transitions, depth int
			var before, after runtime.MemStats
			b.ReportAllocs()
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				states, transitions, depth = c.explore(b)
			}
			elapsed := time.Since(start)
			b.StopTimer()
			runtime.ReadMemStats(&after)
			statesPerSec := float64(states*b.N) / elapsed.Seconds()
			b.ReportMetric(float64(states), "states")
			b.ReportMetric(statesPerSec, "states/sec")
			recordBench(b, "BENCH_checker.json", "explore_sweep", map[string]any{
				"config":         c.name,
				"states":         states,
				"transitions":    transitions,
				"depth":          depth,
				"states_per_sec": statesPerSec,
				"ns_per_op":      elapsed.Nanoseconds() / int64(b.N),
				"bytes_per_op":   (after.TotalAlloc - before.TotalAlloc) / uint64(b.N),
				"peak_rss_mb":    peakRSSMB(),
			}, "config")
		})
	}
}

// peakRSSMB returns the process's peak resident set size in MB, read from
// /proc/self/status (VmHWM); 0 where that file does not exist.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if kb, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			n, _ := strconv.Atoi(strings.TrimSpace(strings.TrimSuffix(kb, "kB")))
			return float64(n) / 1024
		}
	}
	return 0
}
