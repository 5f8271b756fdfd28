//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// outDir receives result and trace files; it is ignored by git.
const outDir = "bench/out"

// environment is stamped into every result and trace file.
type environment struct {
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"num_cpu"`
	GenProcs    int    `json:"generator_gomaxprocs"`
	DaemonProcs int    `json:"daemon_gomaxprocs"`
	Conns       int    `json:"tcp_connections"`
	Commit      string `json:"commit"`
	Date        string `json:"date"`
	Seed        int64  `json:"seed"`
	Network     string `json:"network"`
}

// newEnvironment splits the cores so that generator and daemon never need
// the same one: the generator gets GOMAXPROCS max(1, n/2), the daemon the
// rest. (Pinning each to its share by affinity was tried and dropped: with a
// process's runtime threads confined to one CPU they queue behind each
// other, and delivery p99 tripled.) The generator opens at most n TCP
// connections.
func newEnvironment(seed int64) environment {
	n := runtime.NumCPU()
	gen := max(1, n/2)
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{
		GoVersion:   runtime.Version(),
		NumCPU:      n,
		GenProcs:    gen,
		DaemonProcs: max(1, n-gen),
		Conns:       n,
		Commit:      commit,
		Date:        time.Now().UTC().Format(time.RFC3339),
		Seed:        seed,
		Network:     "loopback TCP (127.0.0.1), generator and daemon on one host",
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names one end-to-end metric. endToEndDefs is the list that
// printing, the driver's JSON and BENCHMARK.json follow: the metrics a
// regression bound is held on. ungatedDefs are measured the same way in
// every run, but their run-to-run spread on unchanged code reached or
// passed the widest bound a metric may have (README.md), so they are
// reported as e2e.<name> diagnostics, and a change that claims to move one
// has to show it with paired runs.
type metricDef struct {
	Name string
	Unit string
}

var endToEndDefs = []metricDef{
	{Name: "setup_s", Unit: "s"},
	{Name: "daemon_cpu_util", Unit: "cores"},
	{Name: "daemon_rss_mb", Unit: "MiB"},
}

var ungatedDefs = []metricDef{
	{Name: "delivery_p50_ms", Unit: "ms"},
	{Name: "deliveries_per_s_sat", Unit: "1/s"},
	{Name: "join_mid_ms", Unit: "ms"},
	{Name: "rekey_converge_p50_ms", Unit: "ms"},
}

// workloadResult is one workload's block of a result file.
type workloadResult struct {
	Name        string               `json:"name"`
	EndToEnd    map[string]metric    `json:"end_to_end,omitempty"`
	PerLayer    map[string]metric    `json:"per_layer,omitempty"`
	Rounds      map[string][]float64 `json:"rounds,omitempty"` // per-round values behind the end-to-end figures
	Samples     map[string]int       `json:"samples"`
	Info        map[string]metric    `json:"info,omitempty"`
	Attempted   int64                `json:"attempted"`
	Failed      int64                `json:"failed"`
	FailedRatio float64              `json:"failed_ratio"`
	Correct     bool                 `json:"correct"`
	Invalid     string               `json:"invalid,omitempty"`
	Failures    []string             `json:"failures,omitempty"`
	TraceFile   string               `json:"trace_file,omitempty"`
}

type resultFile struct {
	Env       environment      `json:"env"`
	Seconds   float64          `json:"seconds"`
	Workloads []workloadResult `json:"workloads"`
	ChecksOK  bool             `json:"checks_ok"`
}

func ms(ns float64) float64 { return ns / 1e6 }

// latencies returns the samples' durations, sorted.
func latencies(samples []sample) []int64 {
	lat := make([]int64, len(samples))
	for i, s := range samples {
		lat[i] = s.lat
	}
	sortInt64(lat)
	return lat
}

func sortedCopy(v []int64) []int64 {
	c := append([]int64(nil), v...)
	sortInt64(c)
	return c
}

// perRound applies stat to the sorted durations of the samples due in each
// round, leaving out rounds that have none.
func perRound(samples []sample, rounds []round, stat func(sorted []int64) float64) []float64 {
	parts := make([][]int64, len(rounds))
	for _, s := range samples {
		for k := range rounds {
			if s.at >= rounds[k].before.at && s.at < rounds[k].end {
				parts[k] = append(parts[k], s.lat)
				break
			}
		}
	}
	var out []float64
	for _, p := range parts {
		if len(p) > 0 {
			sortInt64(p)
			out = append(out, stat(p))
		}
	}
	return out
}

func median(sorted []int64) float64 { return float64(percentile(sorted, 0.50)) }

// midmean is the mean of the central half of the samples. A join's time is
// quantised by WaitReady's 1 ms poll, so its distribution has two humps a
// millisecond apart and its median jumps between them as their weights
// cross; the midmean moves with the weights, and still ignores stalls.
func midmean(sorted []int64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	lo, hi := len(sorted)/4, len(sorted)-len(sorted)/4
	var sum float64
	for _, v := range sorted[lo:hi] {
		sum += float64(v)
	}
	return sum / float64(hi-lo)
}

// pacedTotals sums the paced phases of a pass: wall time, CPU time and
// run-queue wait of daemon and generator, and the daemon's context switches.
type pacedTotals struct {
	wall, daemonCPU, daemonWait, selfCPU, selfWait float64 // ns
	ctxsw, changes                                 float64
}

func (p *pass) pacedTotals() pacedTotals {
	var t pacedTotals
	for _, rd := range p.rounds {
		t.wall += float64(rd.after.at - rd.before.at)
		t.daemonCPU += float64(rd.after.daemon.cpu - rd.before.daemon.cpu)
		t.daemonWait += float64(rd.after.daemon.wait - rd.before.daemon.wait)
		t.selfCPU += float64(rd.after.self.cpu - rd.before.self.cpu)
		t.selfWait += float64(rd.after.self.wait - rd.before.self.wait)
		t.ctxsw += float64(rd.after.daemon.ctxsw - rd.before.daemon.ctxsw)
		t.changes += float64(rd.changes)
	}
	return t
}

// endToEnd computes the user-visible metrics of one untraced pass, gated
// and ungated alike, and the per-round values each was taken from.
func endToEnd(p *pass, setups []float64) (map[string]metric, map[string][]float64, map[string]int) {
	var sat, cpu, rss []float64
	for k, rd := range p.rounds {
		if rd.satEnd > rd.satStart {
			sat = append(sat, float64(p.satCounts[k])/(float64(rd.satEnd-rd.satStart)/1e9))
		}
		cpu = append(cpu, float64(rd.after.daemon.cpu-rd.before.daemon.cpu)/float64(rd.after.at-rd.before.at))
		rss = append(rss, float64(rd.after.daemon.rssKB)/1024)
	}
	inMs := func(ns []float64) []float64 {
		for i := range ns {
			ns[i] = ms(ns[i])
		}
		return ns
	}
	rounds := map[string][]float64{
		"delivery_p50_ms":       inMs(perRound(p.delivery, p.rounds, median)),
		"deliveries_per_s_sat":  sat,
		"join_mid_ms":           inMs(perRound(p.joins, p.rounds, midmean)),
		"rekey_converge_p50_ms": inMs(perRound(p.convs, p.rounds, median)),
		"daemon_cpu_util":       cpu,
		"daemon_rss_mb":         rss,
	}
	out := map[string]metric{"setup_s": {medianFloat(setups), "s"}}
	for _, defs := range [][]metricDef{endToEndDefs, ungatedDefs} {
		for _, d := range defs {
			if v, ok := rounds[d.Name]; ok {
				out[d.Name] = metric{medianFloat(v), d.Unit}
			}
		}
	}
	return out, rounds, map[string]int{"delivery": len(p.delivery), "join": len(p.joins), "rekey": len(p.convs)}
}

// validity reports why a pass measured the generator rather than the
// daemon, or "" when it did not. Latency is timed from the intended send
// time, so whatever the generator runs late is inside delivery_p50_ms: the
// pass is invalid when the median send began later than maxLagShare of that
// figure, or when the generator was close to using up its cores. (The lag's
// p99 cannot be the test on this box: the machine itself stalls for
// milliseconds a few times a second, whoever is running.)
func validity(p *pass, env environment) string {
	lagP50 := ms(float64(percentile(latencies(p.lag), 0.50)))
	p50 := ms(float64(percentile(latencies(p.delivery), 0.50)))
	t := p.pacedTotals()
	switch util := t.selfCPU / t.wall; {
	case lagP50 > maxLagShare*p50:
		return fmt.Sprintf("generator lag p50 %.3f ms exceeds %.0f%% of delivery p50 %.3f ms", lagP50, maxLagShare*100, p50)
	case util > maxClientUtil*float64(env.GenProcs):
		return fmt.Sprintf("generator used %.2f of its %d cores in the paced phases", util, env.GenProcs)
	}
	return ""
}

// generatorMetrics are the figures validity judges, the delivery p50 timed
// from the real start of each send rather than the intended one, and how
// long each process sat runnable without a CPU, for the report.
func generatorMetrics(p *pass) map[string]metric {
	lag := latencies(p.lag)
	fromSend := make([]int64, len(p.delivery))
	for i, s := range p.delivery {
		fromSend[i] = s.fromSend
	}
	sortInt64(fromSend)
	t := p.pacedTotals()
	return map[string]metric{
		"bench.gen_lag_p50_ms":            {ms(float64(percentile(lag, 0.50))), "ms"},
		"bench.gen_lag_p90_ms":            {ms(float64(percentile(lag, 0.90))), "ms"},
		"bench.gen_lag_p99_ms":            {ms(float64(percentile(lag, 0.99))), "ms"},
		"bench.delivery_from_send_p50_ms": {ms(median(fromSend)), "ms"},
		"bench.client_cpu_util":           {t.selfCPU / t.wall, "cores"},
		"bench.settle_s":                  {p.settle.Seconds(), "s"},
		"bench.client_runq_wait_pct":      {100 * t.selfWait / t.wall, "%"},
		"daemon.runq_wait_pct":            {100 * t.daemonWait / t.wall, "%"},
	}
}

func printBlock(w io.Writer, res workloadResult) {
	fmt.Fprintf(w, "== %s\n", res.Name)
	if wl, ok := findWorkload(res.Name); ok {
		fmt.Fprintf(w, "   %s\n", wl.Why)
	}
	for _, d := range endToEndDefs {
		if m, ok := res.EndToEnd[d.Name]; ok {
			fmt.Fprintf(w, "  %-28s %14.4f %-6s%s\n", d.Name, m.Value, m.Unit, sampleNote(d.Name, res.Samples))
		}
	}
	rest := make(map[string]metric, len(res.Info))
	for name, m := range res.Info {
		rest[name] = m
	}
	for _, d := range ungatedDefs {
		if m, ok := rest["e2e."+d.Name]; ok {
			fmt.Fprintf(w, "  %-28s %14.4f %-6s%s\n", "e2e."+d.Name, m.Value, m.Unit, sampleNote(d.Name, res.Samples))
			delete(rest, "e2e."+d.Name)
		}
	}
	printSorted(w, rest)
	printSorted(w, res.PerLayer)
	fmt.Fprintf(w, "  %-28s %14.6f ratio  (%d failed of %d attempted)\n", "failed_ratio", res.FailedRatio, res.Failed, res.Attempted)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  failure: %s\n", f)
	}
	if res.Invalid != "" {
		fmt.Fprintf(w, "  INVALID RUN: %s\n", res.Invalid)
	}
}

func sampleNote(name string, samples map[string]int) string {
	for _, k := range []string{"delivery", "join", "rekey"} {
		if strings.HasPrefix(name, k+"_") {
			return fmt.Sprintf(" (n=%d)", samples[k])
		}
	}
	return ""
}

func printSorted(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

func writeResult(name string, rf resultFile) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, name)
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}
