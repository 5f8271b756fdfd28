package checker

import (
	"strings"
	"sync"
	"testing"

	"enclaves/internal/model"
)

// These tests are mutation tests OF THE CHECKER: they verify that the
// verification machinery actually detects broken protocols, so the PROVED
// verdicts on the faithful model are meaningful. The WeakAdminFreshness
// mutation removes the member-nonce check on AdminMsg reception — the exact
// weakness the legacy new_key message has — and the checker must find the
// resulting replay/duplication violation.

var weakExploration = sync.OnceValue(func() *Exploration {
	return Explore(model.Config{MaxSessions: 2, MaxAdmin: 2, WeakAdminFreshness: true}, nil, nil)
})

func TestCheckerDetectsWeakAdminFreshness(t *testing.T) {
	// The prefix property must be violated: a replayed AdminMsg is
	// accepted twice, so rcv_A stops being a prefix of snd_A.
	o := find(t, weakExploration().Obligations, "5.4a")
	if o.Holds {
		t.Fatal("checker failed to detect the broken freshness guard")
	}
	if len(o.Witness) == 0 {
		t.Fatal("violation reported without a counterexample trace")
	}
	// The counterexample must actually contain a duplicated acceptance.
	trace := strings.Join(o.Witness, "\n")
	if !strings.Contains(trace, "accept AdminMsg") {
		t.Errorf("counterexample does not show an admin acceptance:\n%s", trace)
	}
}

func TestWeakVariantStillKeepsSecrecy(t *testing.T) {
	// Removing the freshness check breaks ORDERING, not secrecy: the keys
	// stay secret (the intruder still can't synthesize under K_a). The
	// checker must keep these obligations green, confirming it
	// distinguishes the two failure classes.
	obs := weakExploration().Obligations
	if o := find(t, obs, "5.1"); !o.Holds {
		t.Errorf("unexpected P_a leak in weak variant: %s", o)
	}
	if o := find(t, obs, "5.2"); !o.Holds {
		t.Errorf("unexpected K_a leak in weak variant: %s", o)
	}
	if o := find(t, obs, "5.4b"); !o.Holds {
		t.Errorf("unexpected authentication break in weak variant: %s", o)
	}
}

func TestWeakVariantBreaksDiagram(t *testing.T) {
	// The verification diagram of the faithful protocol cannot be a valid
	// abstraction of the weakened one: some state or edge must escape it.
	broken := false
	for _, o := range weakExploration().Diagram.Obligations {
		if !o.Holds {
			broken = true
		}
	}
	if !broken {
		t.Error("faithful diagram validated a broken protocol")
	}
}
