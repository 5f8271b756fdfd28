package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// withEnabled runs f with collection on, restoring the previous state.
func withEnabled(t *testing.T, f func()) {
	t.Helper()
	prev := Enabled()
	Enable()
	defer func() {
		if !prev {
			Disable()
		}
	}()
	f()
}

// Instruments register with Default once, at package init, as the
// runtime's do: a second NewCounter of a name panics, so a test that
// registered in its body would fail under -count=2. The tests below read
// these through deltas, which hold on a repeated run.
var (
	testCounter      = NewCounter("test_counter_total")
	testGauge        = NewGauge("test_gauge")
	testDisabled     = NewCounter("test_disabled_total")
	testDisabledHist = NewHistogram("test_disabled_hist")
	testHist         = NewHistogram("test_hist")
	testHistEdges    = NewHistogram("test_hist_edges")
	testConcCounter  = NewCounter("test_conc_total")
	testConcGauge    = NewGauge("test_conc_gauge")
	testConcHist     = NewHistogram("test_conc_hist")
	testDupCounter   = NewCounter("test_dup_total")
	testVecCounter   = NewCounterVec("test_vec_counter_total")
	testVecGauge     = NewGaugeVec("test_vec_gauge")
	writeJSONProbe   = NewCounter("test_write_json_total")
)

func TestCounterGauge(t *testing.T) {
	c, g := testCounter, testGauge
	c0 := c.Value()
	withEnabled(t, func() {
		c.Inc()
		c.Add(4)
		g.Set(7)
		g.Add(-2)
	})
	if v := c.Value() - c0; v != 5 {
		t.Fatalf("counter grew by %d, want 5", v)
	}
	if v := g.Value(); v != 5 {
		t.Fatalf("gauge = %d, want 5", v)
	}
}

func TestDisabledPathIsNoop(t *testing.T) {
	c, h := testDisabled, testDisabledHist
	if Enabled() {
		t.Fatal("metrics enabled at test start; tests assume the default-off state")
	}
	n0 := h.Count()
	c.Inc()
	c.Add(100)
	h.Observe(time.Second)
	if c.Value() != 0 || h.Count() != n0 {
		t.Fatalf("disabled instruments recorded: counter=%d hist=%d", c.Value(), h.Count()-n0)
	}
	// Record is the owner's own measurement: it ignores the switch.
	h.Record(time.Second)
	if h.Count() != n0+1 || h.Max() != time.Second {
		t.Fatalf("Record while disabled: count=%d max=%v", h.Count()-n0, h.Max())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := testHist
	n0 := h.Count()
	withEnabled(t, func() {
		// 90 fast observations and 10 slow ones: p50 must land in the fast
		// band, p99 in the slow band, and both are conservative (upper
		// bucket bound) so >= the true value.
		for i := 0; i < 90; i++ {
			h.Observe(50 * time.Microsecond)
		}
		for i := 0; i < 10; i++ {
			h.Observe(80 * time.Millisecond)
		}
	})
	if n := h.Count() - n0; n != 100 {
		t.Fatalf("count grew by %d, want 100", n)
	}
	p50, p99 := h.Quantile(0.50), h.Quantile(0.99)
	if p50 < 50*time.Microsecond || p50 > time.Millisecond {
		t.Fatalf("p50 = %v, want in [50µs, 1ms]", p50)
	}
	if p99 < 80*time.Millisecond || p99 > 2*time.Second {
		t.Fatalf("p99 = %v, want in [80ms, 2s]", p99)
	}
	if p99 < p50 {
		t.Fatalf("p99 %v < p50 %v", p99, p50)
	}
}

func TestHistogramOverflowAndNegative(t *testing.T) {
	h := testHistEdges
	n0 := h.Count()
	withEnabled(t, func() {
		h.Observe(-time.Second)     // clamps to 0
		h.Observe(time.Hour)        // overflow bucket
		h.Observe(30 * time.Minute) // overflow bucket
	})
	if n := h.Count() - n0; n != 3 {
		t.Fatalf("count grew by %d, want 3", n)
	}
	// Overflow quantiles report the tracked max, not a bucket bound.
	if q := h.Quantile(1.0); q != time.Hour {
		t.Fatalf("q1.0 = %v, want 1h (tracked max)", q)
	}
}

// TestHistogramBuckets pins the log-linear indexing: bucket bounds invert
// correctly, every value lies inside its bucket, and bounds increase.
func TestHistogramBuckets(t *testing.T) {
	for _, v := range []uint64{0, 1, 3, 4, 7, 8, 100, 1023, 1 << 20, 1<<63 - 1} {
		i := histBucket(v)
		if i >= histBuckets {
			t.Fatalf("histBucket(%d) = %d, beyond the %d buckets", v, i, histBuckets)
		}
		if lo := histBound(i); lo > v {
			t.Errorf("histBound(histBucket(%d)) = %d > value", v, lo)
		}
		if hi := histBound(i + 1); hi <= v {
			t.Errorf("value %d not below next bucket bound %d", v, hi)
		}
	}
	for i := 1; i <= histBuckets; i++ {
		if histBound(i) <= histBound(i-1) {
			t.Fatalf("bucket bounds not strictly increasing at %d", i)
		}
	}
}

// TestHistogramResolution pins the log-linear buckets' resolution: there is
// no floor, so microsecond observations report as microseconds (the seal
// path is ~1µs), and on a seeded sample every quantile is within one bucket
// — 25% — above the exact order statistic.
func TestHistogramResolution(t *testing.T) {
	var fast, spread Histogram
	r := rand.New(rand.NewSource(20010621))
	sample := make([]time.Duration, 10000)
	withEnabled(t, func() {
		for i := 0; i < 1000; i++ {
			fast.Observe(time.Microsecond)
		}
		for i := range sample {
			// Log-uniform over 100ns..1s, the range the runtime observes.
			sample[i] = time.Duration(100 * math.Pow(1e7, r.Float64()))
			spread.Observe(sample[i])
		}
	})
	if p50 := fast.Quantile(0.50); p50 < time.Microsecond || p50 >= 2*time.Microsecond {
		t.Fatalf("p50 of 1µs observations = %v, want in [1µs, 2µs)", p50)
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	for _, q := range []float64{0.01, 0.25, 0.50, 0.90, 0.99, 0.999, 1} {
		exact := sample[int(q*float64(len(sample)))-1]
		if got := spread.Quantile(q); got < exact || float64(got) > 1.25*float64(exact) {
			t.Errorf("q%v = %v, want within 25%% above the exact %v", q, got, exact)
		}
	}
	if spread.Quantile(1) != spread.Max() {
		t.Errorf("q1 = %v, want the observed max %v", spread.Quantile(1), spread.Max())
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	c, h := new(Counter), new(Histogram)
	r.register("c_total", c)
	r.register("h_latency", h)
	withEnabled(t, func() {
		c.Add(3)
		h.Observe(time.Millisecond)
	})

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, buf.String())
	}
	if decoded["c_total"].(float64) != 3 {
		t.Fatalf("c_total = %v, want 3", decoded["c_total"])
	}
	hist, ok := decoded["h_latency"].(map[string]any)
	if !ok {
		t.Fatalf("h_latency is %T, want object", decoded["h_latency"])
	}
	for _, k := range []string{"count", "avg_us", "p50_us", "p90_us", "p99_us", "max_us"} {
		if _, ok := hist[k]; !ok {
			t.Fatalf("histogram snapshot missing %q: %v", k, hist)
		}
	}
}

// TestDefaultWriteJSON: the process-wide registry, which enclaved's
// /metrics serves, writes one JSON object that names every instrument.
func TestDefaultWriteJSON(t *testing.T) {
	withEnabled(t, writeJSONProbe.Inc)
	var buf bytes.Buffer
	if err := Default.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("snapshot not JSON: %v", err)
	}
	for name := range Default.inst {
		if _, ok := decoded[name]; !ok {
			t.Errorf("snapshot misses %s", name)
		}
	}
	if got, want := decoded["test_write_json_total"], float64(writeJSONProbe.Value()); got != want || want == 0 {
		t.Errorf("test_write_json_total = %v, want %v > 0", got, want)
	}
}

// TestConcurrentUpdates hammers one instrument of each kind from many
// goroutines; run with -race this is the memory-safety proof for the
// lock-free paths.
func TestConcurrentUpdates(t *testing.T) {
	c, g, h := testConcCounter, testConcGauge, testConcHist
	c0, n0 := c.Value(), h.Count()
	withEnabled(t, func() {
		const workers, each = 8, 1000
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					c.Inc()
					g.Add(1)
					h.Observe(time.Duration(i) * time.Microsecond)
				}
			}(w)
		}
		wg.Wait()
		if c.Value()-c0 != workers*each {
			t.Errorf("counter grew by %d, want %d", c.Value()-c0, workers*each)
		}
		if h.Count()-n0 != workers*each {
			t.Errorf("hist count grew by %d, want %d", h.Count()-n0, workers*each)
		}
	})
}

// TestDuplicateNamePanics registers a name Default already holds
// (testDupCounter's, at package init): that second registration panics.
func TestDuplicateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	NewCounter("test_dup_total")
}
