//go:build linux

package main

import (
	"math"
	"sort"
	"sync"
)

// percentile returns the q-th quantile (0 < q <= 1) of sorted by the
// nearest-rank rule: the smallest sample with at least q of the samples at
// or below it. Exact on the raw samples — no buckets. Zero on empty input.
func percentile(sorted []int64, q float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(n) - 1e-9)) // the epsilon absorbs 0.99*100 = 99.00000000000001
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

func sortInt64(v []int64) {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
}

// medianFloat is the median of values (the mean of the two middle ones when
// their count is even); the input is left as it was.
func medianFloat(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	m := len(v) / 2
	if len(v)%2 == 1 {
		return v[m]
	}
	return (v[m-1] + v[m]) / 2
}

// sample is one timed observation: when the operation was due (ns since the
// run's origin) and how long it took from then. A paced delivery also keeps
// how long it took from the moment its send really began.
type sample struct {
	at       int64
	lat      int64
	fromSend int64
}

// convTracker times one group's rekey convergence from outside: a change
// begins, and it has converged once every tracked member has reported an
// epoch at or past the group's pre-change epoch plus one. Changes are
// serialised per group, so that target is unambiguous. Reports may arrive
// in any order across members; each member counts once per change.
type convTracker struct {
	mu      sync.Mutex
	epochs  []uint64 // last epoch reported by each tracked member
	epoch   uint64   // group epoch all tracked members have converged to
	target  uint64   // epoch of the change in flight; 0 when idle
	pending int      // tracked members still below target
	start   int64
	done    chan int64 // receives the convergence time of the change in flight
}

func newConvTracker(members int) *convTracker {
	return &convTracker{epochs: make([]uint64, members), done: make(chan int64, 1)}
}

// begin opens a change at time now and returns the channel its convergence
// time (ns after now) will be sent on.
func (t *convTracker) begin(now int64) <-chan int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.target = t.epoch + 1
	t.start = now
	t.pending = 0
	for _, e := range t.epochs {
		if e < t.target {
			t.pending++
		}
	}
	if t.pending == 0 {
		t.finishLocked(now)
	}
	return t.done
}

// settle declares that every tracked member has converged to epoch, which
// is where the next change starts from.
func (t *convTracker) settle(epoch uint64) {
	t.mu.Lock()
	t.epoch = epoch
	t.mu.Unlock()
}

// observe records member's rekey to epoch at time now, and reports whether
// it was the member's step across the target of the change in flight.
func (t *convTracker) observe(member int, epoch uint64, now int64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	prev := t.epochs[member]
	if epoch <= prev {
		return false
	}
	t.epochs[member] = epoch
	if t.target == 0 || prev >= t.target || epoch < t.target {
		return false
	}
	if t.pending--; t.pending == 0 {
		t.finishLocked(now)
	}
	return true
}

func (t *convTracker) finishLocked(now int64) {
	t.epoch = t.target
	t.target = 0
	t.done <- now - t.start
}
