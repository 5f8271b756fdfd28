package checker

import (
	"testing"

	"enclaves/internal/model"
)

// TestReplayOnlyIntruderAblation checks the DESIGN.md ablation claim: with
// the secrecy invariants intact, the replay-only intruder reaches exactly
// the same honest-visible states as the full lazy-synthesis intruder,
// because synthesized injections can only fire after a key compromise that
// never happens while a key is in use.
func TestReplayOnlyIntruderAblation(t *testing.T) {
	full := Explore(model.DefaultConfig(), nil, nil)
	replayOnly := Explore(model.Config{
		MaxSessions:        model.DefaultConfig().MaxSessions,
		MaxAdmin:           model.DefaultConfig().MaxAdmin,
		ReplayOnlyIntruder: true,
	}, nil, nil)

	if full.States != replayOnly.States {
		t.Errorf("state counts differ: full=%d replay-only=%d", full.States, replayOnly.States)
	}
	if full.Transitions != replayOnly.Transitions {
		t.Errorf("transition counts differ: full=%d replay-only=%d", full.Transitions, replayOnly.Transitions)
	}

	// Every obligation must hold under both intruders.
	holds(t, "by the full intruder", full.Obligations)
	holds(t, "by the replay-only intruder", replayOnly.Obligations)
}

// TestNoIntruderInjectionEverFires asserts the secrecy consequence
// directly: in the full model at the default bound, no reachable transition
// is an intruder injection — every forgeable pattern requires a key the
// secrecy theorems keep out of the intruder's hands while any guard would
// accept it.
func TestNoIntruderInjectionEverFires(t *testing.T) {
	Explore(model.DefaultConfig(), nil, func(_ *Node, _ *model.State, st model.Step, _ *Node) {
		if st.Actor == model.AgentIntruder {
			t.Fatalf("intruder injection fired: %s", st)
		}
	})
}
