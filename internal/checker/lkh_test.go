package checker

import (
	"strings"
	"testing"

	"enclaves/internal/model"
	"enclaves/internal/symbolic"
)

// These tests discharge the verification obligations over the LKH extension:
// the leader delivers tree keys over PathKeys, departures Oops the departed
// member's tree key and force a rotation sealed under the subtree key K_s,
// and the new 5.6 obligation states that the rotation really achieves
// forward secrecy. The WeakLKHRotation mutation seals the rotated key under
// the key being replaced — the classic broken group rekey — and the checker
// must catch it through 5.6 and ONLY through 5.6.

var lkhConfig = model.Config{MaxSessions: 2, MaxAdmin: 2, LKH: true}

func TestLKHInvariants(t *testing.T) {
	holds(t, "under LKH", Explore(lkhConfig, nil, nil).Obligations)
}

// TestLKHReachesRotation: the extension is not vacuous — path deliveries,
// departure-triggered Oops(TK) releases and completed rotations are all
// reachable, and some state holds a live post-rotation tree key while the
// intruder knows the Oops'd one it replaced (the exact forward-secrecy
// scenario 5.6 quantifies over).
func TestLKHReachesRotation(t *testing.T) {
	var delivered, rotated, postRotation int
	Explore(lkhConfig, func(_ *Node, s *model.State) {
		if s.TK == nil || s.Oopsed.Contains(s.TK) {
			return
		}
		// A live TK coexisting with an intruder-known released key means a
		// rotation already happened after a departure release — the exact
		// configuration the 5.6 exemption is scoped around.
		oopsedOld := false
		s.Oopsed.Each(func(k *symbolic.Field) bool {
			if s.IK.Contains(k) {
				oopsedOld = true
				return false
			}
			return true
		})
		if oopsedOld {
			postRotation++
		}
	}, func(_ *Node, _ *model.State, st model.Step, _ *Node) {
		if st.Emitted == nil || st.Actor != model.AgentLeader {
			return
		}
		switch st.Emitted.Label {
		case model.LabelPathKeys:
			delivered++
		case model.LabelKeyUpdate:
			rotated++
		}
	})
	if delivered == 0 || rotated == 0 {
		t.Fatalf("LKH path not exercised: pathkeys=%d keyupdates=%d", delivered, rotated)
	}
	if postRotation == 0 {
		t.Fatal("no state holds a live tree key after a release: 5.6 is vacuous")
	}
}

// TestLKHFailoverInvariants: LKH composed with the failover extension — the
// promotion-forced rotation (TKDirty without an Oops) and the re-delivery of
// path keys over the resumed session must preserve every obligation.
func TestLKHFailoverInvariants(t *testing.T) {
	// Non-vacuity: some crash really found a delivered tree key and forced
	// the promotion rotation.
	promoted := 0
	ex := Explore(model.Config{MaxSessions: 2, MaxAdmin: 1, Failover: true, LKH: true}, func(_ *Node, s *model.State) {
		if s.Lead.Phase == model.LeadPromoted && s.TKDirty {
			promoted++
		}
	}, nil)
	holds(t, "under LKH+failover", ex.Obligations)
	if promoted == 0 {
		t.Fatal("no promotion ever dirtied the tree: promotion rotation unexercised")
	}
}

// TestCheckerDetectsWeakLKHRotation is the sensitivity (mutation) test of
// the LKH verification: sealing the rotated tree key under the old one lets
// the departed member — holding the old key via its Oops — read every
// post-departure key. The checker must catch this as a 5.6 violation, and
// every OTHER obligation must keep holding: the mutation breaks forward
// secrecy of the tree key alone, not session-key secrecy, authentication or
// ordering — only 5.6 separates the two rekey designs.
func TestCheckerDetectsWeakLKHRotation(t *testing.T) {
	ex := Explore(model.Config{MaxSessions: 2, MaxAdmin: 1, LKH: true, WeakLKHRotation: true}, nil, nil)
	failed := map[string]bool{}
	for _, o := range ex.Obligations {
		if !o.Holds {
			failed[o.ID] = true
		}
	}
	if !failed["5.6"] {
		t.Fatal("checker failed to detect the weakened LKH rotation")
	}
	if len(failed) != 1 {
		t.Errorf("mutation must be caught by 5.6 alone, but failed: %v", failed)
	}

	o := find(t, ex.Obligations, "5.6")
	if len(o.Witness) == 0 {
		t.Fatal("violation reported without a counterexample trace")
	}
	trace := strings.Join(o.Witness, "\n")
	if !strings.Contains(trace, "rotate tree key") {
		t.Errorf("counterexample does not involve a rotation:\n%s", trace)
	}
	if !strings.Contains(trace, "Oops") {
		t.Errorf("counterexample does not involve a departure release:\n%s", trace)
	}
}
