package metrics

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterVec(t *testing.T) {
	Enable()
	defer Disable()
	v := testVecCounter
	v.Remove("g0") // a repeated run starts both labels from zero
	v.Remove("g1")
	v.With("g0").Inc()
	v.With("g0").Add(2)
	v.With("g1").Inc()
	if got := v.With("g0").Value(); got != 3 {
		t.Errorf("g0 = %d, want 3", got)
	}
	if got := v.With("g1").Value(); got != 1 {
		t.Errorf("g1 = %d, want 1", got)
	}
	// The same label always resolves to the same child.
	if v.With("g0") != v.With("g0") {
		t.Error("With returned distinct children for one label")
	}
	snap := v.snapshotValue().(map[string]any)
	if snap["g0"] != uint64(3) || snap["g1"] != uint64(1) {
		t.Errorf("snapshot = %v", snap)
	}
	// Remove drops state; recreation starts from zero.
	v.Remove("g0")
	if got := len(v.children); got != 1 {
		t.Errorf("%d children after Remove, want 1", got)
	}
	if got := v.With("g0").Value(); got != 0 {
		t.Errorf("recreated child = %d, want 0", got)
	}
}

func TestGaugeVec(t *testing.T) {
	Enable()
	defer Disable()
	v := testVecGauge
	v.Remove("b") // a repeated run starts from zero
	v.With("a").Set(7)
	v.With("b").Add(-2)
	if got := v.With("a").Value(); got != 7 {
		t.Errorf("a = %d, want 7", got)
	}
	snap := v.snapshotValue().(map[string]any)
	if snap["a"] != int64(7) || snap["b"] != int64(-2) {
		t.Errorf("snapshot = %v", snap)
	}
	v.Remove("a")
	v.Remove("a") // idempotent
	if got := len(v.children); got != 1 {
		t.Errorf("%d children after Remove, want 1", got)
	}
}

// TestVecSnapshotNested checks the registry snapshot embeds families as
// nested objects keyed by label.
func TestVecSnapshotNested(t *testing.T) {
	Enable()
	defer Disable()
	r := NewRegistry()
	v := &CounterVec{children: make(map[string]*Counter)}
	r.register("tenant_joins_total", v)
	v.With("alpha").Add(5)
	v.With("beta").Inc()

	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var out map[string]map[string]uint64
	if err := json.Unmarshal([]byte(sb.String()), &out); err != nil {
		t.Fatalf("snapshot JSON: %v\n%s", err, sb.String())
	}
	if out["tenant_joins_total"]["alpha"] != 5 || out["tenant_joins_total"]["beta"] != 1 {
		t.Errorf("nested snapshot = %v", out)
	}
}

// TestVecConcurrent hammers With/Remove/snapshot from many goroutines; the
// -race run is the assertion.
func TestVecConcurrent(t *testing.T) {
	Enable()
	defer Disable()
	v := &CounterVec{children: make(map[string]*Counter)}
	labels := []string{"g0", "g1", "g2", "g3"}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				label := labels[(i+j)%len(labels)]
				v.With(label).Inc()
				if j%97 == 0 {
					v.Remove(label)
				}
				if j%31 == 0 {
					_ = v.snapshotValue()
				}
			}
		}(i)
	}
	wg.Wait()
}
