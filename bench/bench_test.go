//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	v := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.9, 90}, {0.99, 100}, {0.1, 10}, {0.01, 10}, {1, 100}, {0.55, 60}} {
		if got := percentile(v, c.q); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	hundred := make([]int64, 100)
	for i := range hundred {
		hundred[i] = int64(i + 1)
	}
	if got := percentile(hundred, 0.99); got != 99 { // 0.99*100 is 99.00000000000001 in floating point
		t.Errorf("p99 of 1..100 = %d, want 99", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
}

func TestRoundFigures(t *testing.T) {
	// Three rounds on the run clock: [0,100), [100,200), [200,300). The
	// second holds a hiccup; a sample before the first round and one at the
	// last round's end belong to none.
	rounds := make([]round, 3)
	for k := range rounds {
		rounds[k].before.at, rounds[k].end = int64(100*k), int64(100*(k+1))
	}
	samples := []sample{
		{at: 0, lat: 1}, {at: 50, lat: 3}, {at: 99, lat: 2},
		{at: 100, lat: 1000}, {at: 150, lat: 7},
		{at: 200, lat: 4}, {at: 299, lat: 5},
		{at: -1, lat: 9999}, {at: 300, lat: 9999},
	}
	maximum := func(sorted []int64) float64 { return float64(sorted[len(sorted)-1]) }
	got := perRound(samples, rounds, maximum)
	if want := []float64{3, 1000, 5}; len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("per-round maxima = %v, want %v", got, want)
	}
	if got := perRound(samples[:3], rounds, median); len(got) != 1 || got[0] != 2 {
		t.Errorf("rounds without samples are left out: got %v, want [2]", got)
	}
	// Central half of 8 samples: the 3rd to the 6th.
	if got := midmean([]int64{1, 1, 14, 14, 24, 24, 900, 900}); got != 19 {
		t.Errorf("midmean = %v, want 19", got)
	}
	if got := midmean([]int64{5}); got != 5 {
		t.Errorf("midmean of one sample = %v, want 5", got)
	}
	if got := midmean(nil); got != 0 {
		t.Errorf("midmean of nothing = %v, want 0", got)
	}
	// A run's figure is the median of its rounds: one hiccup does not set
	// it, a stall in most rounds does.
	for _, c := range []struct {
		rounds []float64
		want   float64
	}{
		{[]float64{3, 1000, 5, 4, 2}, 4},
		{[]float64{3, 1000, 900, 4, 800}, 800},
		{[]float64{4, 2, 8, 6}, 5},
		{nil, 0},
	} {
		if got := medianFloat(c.rounds); got != c.want {
			t.Errorf("medianFloat(%v) = %v, want %v", c.rounds, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := spread([]float64{10, 10, 10}); got != 0 {
		t.Errorf("spread of equal values = %v", got)
	}
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	w, _ := findWorkload("churn_flat")
	a := buildSchedule(w, 7, 3, time.Second).bytes()
	b := buildSchedule(w, 7, 3, time.Second).bytes()
	c := buildSchedule(w, 8, 3, time.Second).bytes()
	if !bytes.Equal(a, b) {
		t.Error("equal seeds gave different schedules")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds gave the same schedule")
	}
	s := buildSchedule(w, 7, 3, time.Second)
	if n := len(s.Sends); n != 3*int(w.Rate) { // the count is fixed: rate x length in every round
		t.Errorf("%d sends in 3 s at %v/s", n, w.Rate)
	}
	for i, e := range s.Sends {
		if int(e.Group) >= w.Groups || int(e.Sender) >= w.Senders || e.At >= 3*time.Second || (i > 0 && e.At < s.Sends[i-1].At) {
			t.Fatalf("send %d out of range or order: %+v", i, e)
		}
	}
}

func TestConvergenceOutOfOrder(t *testing.T) {
	tr := newConvTracker(3)
	// Set-up: members report their join-time epochs in any order.
	tr.observe(2, 4, 1)
	tr.observe(0, 4, 2)
	tr.observe(1, 3, 3)
	tr.observe(1, 4, 4)
	tr.settle(4)

	done := tr.begin(100)
	if tr.observe(1, 4, 101) { // a stale duplicate is not progress
		t.Error("repeat of the old epoch counted")
	}
	if !tr.observe(2, 5, 110) || !tr.observe(0, 5, 105) { // member 2 before member 0
		t.Error("rekey to the target epoch not counted")
	}
	if tr.observe(2, 5, 111) {
		t.Error("a member counted twice for one change")
	}
	select {
	case <-done:
		t.Fatal("converged with a member still on the old epoch")
	default:
	}
	tr.observe(1, 5, 130)
	if d := <-done; d != 30 {
		t.Errorf("convergence took %d, want 30 (last member at 130, change began at 100)", d)
	}

	// The next change starts from epoch 5. A member that skips straight past
	// the target still counts.
	done = tr.begin(200)
	tr.observe(0, 6, 201)
	tr.observe(1, 7, 202)
	tr.observe(2, 6, 207)
	if d := <-done; d != 7 {
		t.Errorf("second convergence took %d, want 7", d)
	}
}

func TestSelfTimeIsDurationMinusChildCover(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100e6},
		{ID: 2, Parent: 1, Name: "child", Start: 10e6, End: 40e6},
		{ID: 3, Parent: 1, Name: "child", Start: 30e6, End: 60e6},  // overlaps the first
		{ID: 4, Parent: 1, Name: "child", Start: 90e6, End: 120e6}, // runs past the root
	}
	sum := summarize(spans)
	if got := sum["root"].SelfMs; got != 40 { // 100 - [10,60] - [90,100]
		t.Errorf("root self time = %v ms, want 40", got)
	}
	if got := sum["child"]; got.Count != 3 || got.TotalMs != 90 || got.SelfMs != 90 {
		t.Errorf("child summary = %+v", got)
	}
}

func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, spec.Workloads[i].Name, w.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the code", len(spec.EndToEnd), len(endToEndDefs))
	}
	for i, d := range endToEndDefs {
		if m := spec.EndToEnd[i]; m.Name != d.Name || m.Unit != d.Unit {
			t.Errorf("end-to-end metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the code", i, m.Name, m.Unit, d.Name, d.Unit)
		}
	}
}

// TestSmoke runs a two-group, three-member tenants_small for one second
// against a real spawned daemon and checks what checks_ok checks.
func TestSmoke(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil { // the daemon builds from the module root
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	bin, _, err := buildDaemon()
	if err != nil {
		t.Fatal(err)
	}
	w, _ := findWorkload("tenants_small")
	w.Groups, w.Members, w.Senders, w.Rate = 2, 3, 3, 200
	pl := w.plan(2)
	pl.rounds = 2
	env := environment{Conns: 2, DaemonProcs: 1}
	p, err := runPass(bin, w, 1, pl, false, env)
	if err != nil {
		t.Fatal(err)
	}
	if p.failed != 0 {
		t.Errorf("%d failed operations: %v", p.failed, p.failSamples)
	}
	if p.required == 0 || len(p.delivery) == 0 || p.satCounts[1] == 0 || len(p.joins) == 0 || len(p.convs) == 0 {
		t.Errorf("a phase measured nothing: %d required deliveries, %d paced samples, %v saturated, %d joins, %d rekeys",
			p.required, len(p.delivery), p.satCounts, len(p.joins), len(p.convs))
	}
}
