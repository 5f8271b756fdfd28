// Labeled instrument families for the multi-tenant daemon: one registered
// name fans out into per-label children (one per group/tenant), so a single
// /metrics snapshot distinguishes tenants without a registry entry per
// group. Children are created on first use and removed when their tenant is
// garbage-collected, keeping the family's footprint proportional to *live*
// groups rather than every group ever seen.
package metrics

import "sync"

// Vec is a family of Counters or Gauges keyed by a label value.
type Vec[I Counter | Gauge] struct {
	mu       sync.RWMutex
	children map[string]*I
}

// CounterVec and GaugeVec are the two families the runtime registers.
type (
	CounterVec = Vec[Counter]
	GaugeVec   = Vec[Gauge]
)

// NewCounterVec registers a labeled counter family with Default.
func NewCounterVec(name string) *CounterVec { return newVec[Counter](name) }

// NewGaugeVec registers a labeled gauge family with Default.
func NewGaugeVec(name string) *GaugeVec { return newVec[Gauge](name) }

func newVec[I Counter | Gauge](name string) *Vec[I] {
	v := &Vec[I]{children: make(map[string]*I)}
	Default.register(name, v)
	return v
}

// With returns the child for label, creating it on first use. The
// steady-state path is one RLock and a map probe; creation takes the write
// lock with a double-check so racing firsts converge on one child.
func (v *Vec[I]) With(label string) *I {
	v.mu.RLock()
	c := v.children[label]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.children[label]; c == nil {
		c = new(I)
		v.children[label] = c
	}
	return c
}

// Remove drops the child for label (tenant GC). A later With recreates it
// from zero.
func (v *Vec[I]) Remove(label string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	delete(v.children, label)
}

// snapshotValue maps each label to its child's value.
func (v *Vec[I]) snapshotValue() any {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make(map[string]any, len(v.children))
	for label, c := range v.children {
		out[label] = any(c).(instrument).snapshotValue()
	}
	return out
}
