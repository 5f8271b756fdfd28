// Package metrics is the runtime's observability substrate: atomic
// counters, gauges, and log-linear latency histograms, collected in a
// process-wide registry that snapshots to expvar-style JSON. Every hot
// layer (group leader, member, transport, faultnet, queue) registers its
// instruments here at init, so one snapshot covers the whole pipeline —
// the join/rekey/ack cost curves that group-communication surveys (Xu
// arXiv:2010.05692, Malik arXiv:1211.3502) identify as the dominant load
// of real deployments.
//
// Collection is off by default and gated by a single package-level atomic
// flag: a disabled instrument costs one atomic load and a predicted
// branch, so the protocol hot paths carry no measurable overhead until an
// operator opts in (enclaved -metrics-addr, tests, or benchmarks calling
// Enable).
package metrics

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// on gates every instrument. Disabled instruments drop updates on the
// floor after one atomic load, which is the "near-zero-cost disabled
// path": no locks, no allocation, no pointer chase.
var on atomic.Bool

// Enable turns collection on process-wide.
func Enable() { on.Store(true) }

// Disable turns collection off; existing values are retained (snapshot
// still reports them) but updates stop.
func Disable() { on.Store(false) }

// Enabled reports whether collection is on.
func Enabled() bool { return on.Load() }

// Counter is a monotonically increasing uint64.
type Counter struct {
	name string
	v    atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if on.Load() {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if on.Load() {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) snapshotValue() any { return c.v.Load() }

// Gauge is an instantaneous int64 (depths, sizes, membership counts).
type Gauge struct {
	name string
	v    atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if on.Load() {
		g.v.Store(v)
	}
}

// Add adds delta (negative to decrement).
func (g *Gauge) Add(delta int64) {
	if on.Load() {
		g.v.Add(delta)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) snapshotValue() any { return g.v.Load() }

// Histogram is a lock-free log-linear latency histogram: power-of-two
// buckets split by two sub-bits (a bucket spans at most 25% of its lower
// bound), indexed straight from the bit length of the nanosecond value, so
// it resolves AEAD sealing (~µs) and chaos-soak ack round trips (~s) alike
// without configuration. The zero value is ready to use, unregistered;
// NewHistogram registers one with Default. Quantiles report the upper bound
// of the bucket the target rank lands in, capped at the observed maximum, so
// p50/p99 are conservative to within one bucket width.
type Histogram struct {
	name   string
	counts [histBuckets]atomic.Uint64
	count  atomic.Uint64
	sumNS  atomic.Uint64
	maxNS  atomic.Uint64
}

// histBuckets covers every non-negative int64 nanosecond count: values below
// 4 get a bucket each, then four buckets per power of two up to 2^63.
const histBuckets = 62 * 4

// histBucket is the index of the bucket holding ns (ns < 2^63).
func histBucket(ns uint64) int {
	if ns < 4 {
		return int(ns)
	}
	exp := bits.Len64(ns) - 1    // floor(log2), >= 2
	sub := ns >> uint(exp-2) & 3 // two bits under the leading one
	return (exp-1)*4 + int(sub)
}

// histBound is the inclusive lower bound of bucket i — the inverse of
// histBucket — and so the exclusive upper bound of bucket i-1.
func histBound(i int) uint64 {
	if i < 4 {
		return uint64(i)
	}
	exp := uint(i/4 + 1)
	return 1<<exp | uint64(i%4)<<(exp-2)
}

// Observe records one duration while collection is enabled; disabled, it
// costs one atomic load.
func (h *Histogram) Observe(d time.Duration) {
	if on.Load() {
		h.Record(d)
	}
}

// Record records one duration regardless of the process-wide switch, for a
// histogram that is its owner's own measurement (the load generator's
// delivery latency) rather than runtime instrumentation.
func (h *Histogram) Record(d time.Duration) {
	ns := uint64(d.Nanoseconds())
	if d < 0 {
		ns = 0
	}
	h.counts[histBucket(ns)].Add(1)
	h.count.Add(1)
	h.sumNS.Add(ns)
	for {
		cur := h.maxNS.Load()
		if ns <= cur || h.maxNS.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// Count returns how many observations were recorded.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Max returns the largest observation; zero with none.
func (h *Histogram) Max() time.Duration { return time.Duration(h.maxNS.Load()) }

// Quantile estimates the q-th quantile (0 < q <= 1) as the upper bound of
// the bucket containing that rank, never above Max; zero with no
// observations.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen >= rank {
			return time.Duration(min(histBound(i+1), h.maxNS.Load()))
		}
	}
	return h.Max()
}

// HistogramSnapshot is the JSON form of a histogram.
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	AvgUS float64 `json:"avg_us"`
	P50US float64 `json:"p50_us"`
	P90US float64 `json:"p90_us"`
	P99US float64 `json:"p99_us"`
	MaxUS float64 `json:"max_us"`
}

func (h *Histogram) snapshotValue() any {
	count := h.count.Load()
	var avg float64
	if count > 0 {
		avg = float64(h.sumNS.Load()) / float64(count) / 1e3
	}
	return HistogramSnapshot{
		Count: count,
		AvgUS: avg,
		P50US: float64(h.Quantile(0.50)) / 1e3,
		P90US: float64(h.Quantile(0.90)) / 1e3,
		P99US: float64(h.Quantile(0.99)) / 1e3,
		MaxUS: float64(h.maxNS.Load()) / 1e3,
	}
}

// instrument is anything the registry can snapshot.
type instrument interface{ snapshotValue() any }

// Registry holds named instruments. The zero value is unusable; use
// NewRegistry or the package-level Default.
type Registry struct {
	mu   sync.RWMutex
	inst map[string]instrument
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{inst: make(map[string]instrument)} }

// Default is the process-wide registry the package-level constructors
// register into and enclaved serves.
var Default = NewRegistry()

func (r *Registry) register(name string, in instrument) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.inst[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate instrument %q", name))
	}
	r.inst[name] = in
}

// NewCounter registers a counter with Default. Call at package init; a
// duplicate name panics.
func NewCounter(name string) *Counter {
	c := &Counter{name: name}
	Default.register(name, c)
	return c
}

// NewGauge registers a gauge with Default.
func NewGauge(name string) *Gauge {
	g := &Gauge{name: name}
	Default.register(name, g)
	return g
}

// NewHistogram registers a latency histogram with Default.
func NewHistogram(name string) *Histogram {
	h := &Histogram{name: name}
	Default.register(name, h)
	return h
}

// Snapshot returns every instrument's current value keyed by name.
// Counters and gauges snapshot to integers, histograms to
// HistogramSnapshot.
func (r *Registry) Snapshot() map[string]any {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]any, len(r.inst))
	for name, in := range r.inst {
		out[name] = in.snapshotValue()
	}
	return out
}

// Names returns the registered instrument names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.inst))
	for n := range r.inst {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WriteJSON writes the snapshot as indented JSON (expvar-style: one flat
// object, stable key order via encoding/json's map sorting).
func (r *Registry) WriteJSON(w interface{ Write([]byte) (int, error) }) error {
	b, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}
