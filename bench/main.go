//go:build linux

// Command bench is the repository's one benchmark: four named workloads
// driven by one generator process, through the real member runtime and real
// loopback TCP, against a real enclaved child process. It reports
// end-to-end metrics from an untraced pass, per-layer metrics from probes
// and a traced pass, and checks every delivery. See README.md.
//
//	go run ./bench -seed 1                         every workload, both passes
//	go run ./bench -workload churn_flat -seed 1    one workload
//	go run ./bench -compare a.json b.json          judge b against a
//
// With -workload and -trace the last line of standard output is one JSON
// object, the form BENCHMARK.json's driver reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

const (
	// A paced phase is invalid, not slow, when the generator's median lag
	// behind its own schedule exceeds this share of the delivery p50, or
	// when it used more than this share of its cores.
	maxLagShare   = 0.15
	maxClientUtil = 0.85

	setupRepeats = 3 // set-ups per untraced pass; setup_s is their median

	exitFailed  = 1
	exitUsage   = 2
	exitInvalid = 3 // not from the driver's form (-trace 0|1): see runOne
)

var selfPID = os.Getpid()

func main() {
	var (
		name    = flag.String("workload", "", "run one workload (default: all four)")
		seed    = flag.Int64("seed", 1, "seed of the send schedule, sender choice, payload bytes and churn stagger")
		seconds = flag.Float64("seconds", 28, "measured seconds per workload, shared between its phases")
		trace   = flag.Int("trace", -1, "with -workload: 0 = untraced pass (end-to-end metrics), 1 = probes and traced pass (per-layer metrics)")
		compare = flag.Bool("compare", false, "compare two result files (or comma-separated sets of them): -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			os.Exit(exitUsage)
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 || *seconds <= 0 || *trace < -1 || *trace > 1 {
		flag.Usage()
		os.Exit(exitUsage)
	}

	bin, buildTime, err := buildDaemon()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(exitFailed)
	}
	env := newEnvironment(*seed)
	runtime.GOMAXPROCS(env.GenProcs)
	stopOnSignal()
	b := &bench{env: env, bin: bin, buildSeconds: buildTime.Seconds(), seed: *seed, seconds: *seconds}

	if *name == "" {
		os.Exit(b.runSuite())
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(exitUsage)
	}
	os.Exit(b.runOne(w, *trace))
}

// bench is one invocation's fixed context.
type bench struct {
	env          environment
	bin          string
	buildSeconds float64
	seed         int64
	seconds      float64
	probes       map[string]metric // run once, on first use
}

// runSuite runs every workload, untraced then traced, prints each block and
// the final checks_ok line, and writes one result file.
func (b *bench) runSuite() int {
	fmt.Printf("bench: %s, %d CPUs: generator GOMAXPROCS=%d, daemon GOMAXPROCS=%d, %d TCP connections, %s; commit %s, seed %d\n",
		b.env.GoVersion, b.env.NumCPU, b.env.GenProcs, b.env.DaemonProcs, b.env.Conns, b.env.Network, b.env.Commit, b.seed)
	rf := resultFile{Env: b.env, Seconds: b.seconds, ChecksOK: true}
	code := 0
	for _, w := range workloads {
		res, err := b.measure(w, true, true)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
			return exitFailed
		}
		printBlock(os.Stdout, res)
		rf.Workloads = append(rf.Workloads, res)
		rf.ChecksOK = rf.ChecksOK && res.Correct
		if res.Invalid != "" {
			code = exitInvalid
		}
	}
	path, err := writeResult(fmt.Sprintf("result-seed%d.json", b.seed), rf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return exitFailed
	}
	fmt.Printf("result file: %s\n", path)
	fmt.Printf("checks_ok: %v\n", rf.ChecksOK)
	if !rf.ChecksOK {
		return exitFailed
	}
	return code
}

// runOne runs one workload. trace -1 runs both passes like the suite does;
// 0 and 1 run one side each and end with the driver's JSON line.
func (b *bench) runOne(w workload, trace int) int {
	res, err := b.measure(w, trace != 1, trace != 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
		return exitFailed
	}
	printBlock(os.Stdout, res)
	rf := resultFile{Env: b.env, Seconds: b.seconds, Workloads: []workloadResult{res}, ChecksOK: res.Correct}
	if _, err := writeResult(fmt.Sprintf("result-%s-seed%d-trace%d.json", w.Name, b.seed, trace), rf); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return exitFailed
	}
	fmt.Printf("checks_ok: %v\n", res.Correct)
	// The driver's form reports an invalid pass (in the block above, the
	// result file and on stderr) and still ends with its line and code 0:
	// the metrics BENCHMARK.json holds a bound on (set-up time, daemon CPU
	// at the fixed offered load, daemon RSS) do not contain the generator's
	// lag, and on a shared host a noisy neighbour alone can trip the guard.
	if res.Invalid != "" {
		if trace < 0 {
			return exitInvalid
		}
		fmt.Fprintf(os.Stderr, "bench: %s: invalid run, delivery figures unusable: %s\n", w.Name, res.Invalid)
	}
	if trace >= 0 {
		metrics := res.EndToEnd
		if trace == 1 {
			metrics = res.PerLayer
		}
		line, err := json.Marshal(map[string]any{
			"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return exitFailed
		}
		fmt.Println(string(line))
	}
	if !res.Correct {
		return exitFailed
	}
	return 0
}

// measure runs a workload's passes. The untraced pass (set up setupRepeats
// times, measured once) yields the end-to-end metrics. The traced side runs
// the probes and a traced paced phase; when the untraced pass did not run,
// it first runs an untraced paced phase of the same length to compare with.
func (b *bench) measure(w workload, untraced, traced bool) (workloadResult, error) {
	res := workloadResult{Name: w.Name, Correct: true, Samples: map[string]int{}}
	account := func(p *pass) {
		res.Attempted += p.attempted()
		res.Failed += p.failed
		res.Failures = append(res.Failures, p.failSamples...)
	}
	pl := w.plan(b.seconds)
	var base *pass // untraced reference for the tracing overhead
	if untraced {
		setups, err := b.extraSetups(w, setupRepeats-1)
		if err != nil {
			return res, err
		}
		base, err = runPass(b.bin, w, b.seed, pl, false, b.env)
		if err != nil {
			return res, err
		}
		account(base)
		res.EndToEnd, res.Rounds, res.Samples = endToEnd(base, append(setups, base.setup.Seconds()))
		res.Info = generatorMetrics(base)
		res.Info["payload_mb_per_s_sat"] = metric{res.EndToEnd["deliveries_per_s_sat"].Value * float64(w.Payload) / 1e6, "MB/s"}
		for _, d := range ungatedDefs {
			res.Info["e2e."+d.Name] = res.EndToEnd[d.Name]
			delete(res.EndToEnd, d.Name)
		}
		res.Invalid = validity(base, b.env)
	}
	if traced {
		if b.probes == nil {
			b.probes = runProbes()
		}
		// The traced pass runs paced phases only: 0.4 of the untraced paced
		// time when both passes run (8 s beside 20 s); alone, it shares the
		// paced time with an untraced pass of every phase at half length,
		// which it is compared with and which yields the e2e.* diagnostics.
		tw := plan{rounds: pl.rounds, paced: pl.paced * 4 / 10}
		if !untraced {
			tw.paced = pl.paced / 2
			half := plan{pl.rounds, pl.paced / 2, pl.sat / 2, pl.memb / 2}
			var err error
			if base, err = runPass(b.bin, w, b.seed, half, false, b.env); err != nil {
				return res, err
			}
			account(base)
			res.Invalid = validity(base, b.env)
		}
		tp, err := runPass(b.bin, w, b.seed, tw, true, b.env)
		if err != nil {
			return res, err
		}
		account(tp)
		res.PerLayer = perLayer(w, b, base, tp)
		if res.TraceFile, err = writeTrace(w.Name, b.seed, b.env, tp.spans); err != nil {
			return res, err
		}
	}
	res.FailedRatio = float64(res.Failed) / float64(res.Attempted) // set-up alone attempts every session
	res.Correct = res.Failed == 0
	return res, nil
}

// extraSetups sets the workload up n more times, tearing each down at once,
// and returns the set-up times in seconds.
func (b *bench) extraSetups(w workload, n int) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		r := newRunner(w, schedule{}, false, 0)
		d, err := r.setUp(b.bin, b.env)
		r.tearDown()
		if err != nil {
			return nil, err
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

func init() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: go run ./bench [-workload %s] [-seed n] [-seconds s] [-trace 0|1]\n       go run ./bench -compare a.json b.json\n",
			strings.Join(workloadNames(), "|"))
		flag.PrintDefaults()
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}
