package checker

import (
	"fmt"
	"math/rand"
	"testing"

	"enclaves/internal/model"
)

// TestRandomWalkDeepInvariants validates the Section 5 obligations far
// beyond the exhaustively-checked bound: hundreds of random walks through a
// much larger configuration, running the explorer's own per-state and
// per-transition checks — every invariant and Figure 4 — at every step.
// Random simulation is not exhaustive, but it probes depths (dozens of
// sessions, long admin streams) the BFS cannot reach.
func TestRandomWalkDeepInvariants(t *testing.T) {
	const (
		walks    = 200
		maxSteps = 120
	)
	sys := model.NewSystem(model.Config{MaxSessions: 8, MaxAdmin: 6})
	r := rand.New(rand.NewSource(2026))

	deepest := 0
	for w := 0; w < walks; w++ {
		c := newChecks(sys)
		n, s := &Node{}, sys.Initial()
		c.visit(n, model.Step{Next: s})
		for step := 0; step < maxSteps; step++ {
			succ := sys.Successors(s)
			if len(succ) == 0 {
				break
			}
			st := succ[r.Intn(len(succ))]
			to := &Node{Parent: n, Via: st.String(), Depth: n.Depth + 1}
			c.visit(to, st)
			c.edge(n, st, to)
			n, s = to, st.Next
			deepest = max(deepest, step)
		}
		obs, diagram := c.verdicts()
		holds(t, fmt.Sprintf("on walk %d", w), append(obs, diagram.Obligations...))
		if t.Failed() {
			t.FailNow()
		}
	}
	// Random choices often strand the walk in a terminal branch (e.g. the
	// leader consumes a stale replayed AuthInitReq after A exhausted its
	// sessions), so walks are shorter than the theoretical maximum; we
	// only require meaningfully deeper coverage than the exhaustive bound.
	if deepest < 25 {
		t.Errorf("walks too shallow: deepest step %d", deepest)
	}
}

// TestRandomWalkDiagramCoverage re-checks the diagram classification along
// deep random walks: every visited state must fall in exactly one box.
func TestRandomWalkDiagramCoverage(t *testing.T) {
	sys := model.NewSystem(model.Config{MaxSessions: 6, MaxAdmin: 4})
	d := NewDiagram()
	r := rand.New(rand.NewSource(404))
	boxesSeen := make(map[string]bool)

	for w := 0; w < 100; w++ {
		s := sys.Initial()
		for step := 0; step < 100; step++ {
			succ := sys.Successors(s)
			if len(succ) == 0 {
				break
			}
			s = succ[r.Intn(len(succ))].Next
			got := d.Classify(s)
			if len(got) != 1 {
				t.Fatalf("state classified by %v at walk %d step %d: %s", got, w, step, s)
			}
			boxesSeen[got[0]] = true
		}
	}
	if len(boxesSeen) < 10 {
		t.Errorf("random walks visited only %d boxes: %v", len(boxesSeen), boxesSeen)
	}
}
