package checker

import (
	"strings"
	"testing"

	"enclaves/internal/model"
)

// These tests discharge the verification obligations over the failover
// extension: the primary may crash and hand A's session to the promoted
// standby via the sealed replication channel, and A resumes with the
// Resume/ResumeAck exchange. Every Section 5 property must survive the
// extension, plus the new K_r secrecy obligation (5.5). The Figure 4
// diagram is NOT checked here — it abstracts the crash-free protocol and
// the failover states intentionally live outside it.

var failoverConfig = model.Config{MaxSessions: 2, MaxAdmin: 2, Failover: true}

func TestFailoverInvariants(t *testing.T) {
	holds(t, "under failover", Explore(failoverConfig, nil, nil).Obligations)
}

// TestFailoverReachesResumption: the extension is not vacuous — crashes,
// promotions and completed resumptions are all reachable, and the admin
// pipeline continues across a failover (payloads accepted after the
// resumption extend rcv_A past its pre-crash length).
func TestFailoverReachesResumption(t *testing.T) {
	var promoted, resuming, resumed, continued int
	Explore(failoverConfig, func(_ *Node, s *model.State) {
		if s.Lead.Phase == model.LeadPromoted {
			promoted++
		}
		if s.Usr.Phase == model.UserResuming {
			resuming++
		}
		if s.Failovers > 0 && s.ResumesStarted > 0 &&
			s.Usr.Phase == model.UserConnected && s.Lead.Phase == model.LeadConnected {
			resumed++
		}
		if s.Failovers > 0 && len(s.RcvA) > 1 {
			continued++
		}
	}, nil)
	if promoted == 0 || resuming == 0 || resumed == 0 {
		t.Fatalf("failover path not exercised: promoted=%d resuming=%d resumed=%d",
			promoted, resuming, resumed)
	}
	if continued == 0 {
		t.Fatal("no state continues the admin pipeline after a resumption")
	}
}

// TestFailoverTransitionCoverage: the new FSM edges are all observed —
// crash (Connected -> Promoted), resume acceptance (Promoted ->
// WaitingForAck), resume start (Connected -> Resuming) and resume
// completion (Resuming -> Connected).
func TestFailoverTransitionCoverage(t *testing.T) {
	type phasePair struct{ from, to string }
	userEdges := make(map[phasePair]bool)
	leadEdges := make(map[phasePair]bool)
	replDeltas := 0
	Explore(failoverConfig, nil, func(_ *Node, s *model.State, st model.Step, _ *Node) {
		fu, tu := s.Usr.Phase.String(), st.Next.Usr.Phase.String()
		if fu != tu {
			userEdges[phasePair{fu, tu}] = true
		}
		fl, tl := s.Lead.Phase.String(), st.Next.Lead.Phase.String()
		if fl != tl {
			leadEdges[phasePair{fl, tl}] = true
		}
		if st.Emitted != nil && st.Emitted.Label == model.LabelReplDelta && st.Actor == model.AgentLeader {
			replDeltas++
		}
	})
	for _, want := range []phasePair{{"Connected", "Resuming"}, {"Resuming", "Connected"}} {
		if !userEdges[want] {
			t.Errorf("user FSM edge %s -> %s never exercised", want.from, want.to)
		}
	}
	for _, want := range []phasePair{
		{"Connected", "Promoted"},     // crash + promotion
		{"Promoted", "WaitingForAck"}, // resume accepted, ResumeAck sent
		{"Promoted", "NotConnected"},  // close while promoted
	} {
		if !leadEdges[want] {
			t.Errorf("leader FSM edge %s -> %s never exercised", want.from, want.to)
		}
	}
	if replDeltas == 0 {
		t.Error("no honest ReplDelta emission observed")
	}
}

// TestFailoverReplKeySecrecy: the 5.5 obligation holds non-vacuously — the
// trace really contains ReplDelta messages sealed under K_r while K_r stays
// out of the intruder's knowledge.
func TestFailoverReplKeySecrecy(t *testing.T) {
	seen := false
	ex := Explore(failoverConfig, func(_ *Node, s *model.State) {
		for _, m := range s.Net {
			seen = seen || m.Label == model.LabelReplDelta
		}
	}, nil)
	if o := find(t, ex.Obligations, "5.5"); !o.Holds {
		t.Fatalf("5.5 violated: %s", o)
	}
	if !seen {
		t.Fatal("K_r secrecy check is vacuous: no ReplDelta in any trace")
	}
}

// TestFailoverResumeIsOneShot: no reachable state shows two resume
// acceptances for one crash — the replicated nonce is consumed by the first
// accepted Resume, so a replayed Resume can never be accepted again.
func TestFailoverResumeIsOneShot(t *testing.T) {
	Explore(failoverConfig, func(n *Node, s *model.State) {
		accepts := 0
		for _, step := range n.Trace() {
			if strings.Contains(step, "accept Resume,") {
				accepts++
			}
		}
		if accepts > s.Failovers {
			t.Fatalf("%d resume acceptances for %d crashes:\n%s",
				accepts, s.Failovers, strings.Join(n.Trace(), "\n"))
		}
	}, nil)
}

// TestCheckerDetectsWeakResumeFreshness is the sensitivity (mutation) test
// of the failover verification: dropping the resuming user's echoed-nonce
// check lets a replayed pre-crash AdminMsg pass for the ResumeAck, and the
// checker must catch the resulting duplicate acceptance as a 5.4a prefix
// violation.
func TestCheckerDetectsWeakResumeFreshness(t *testing.T) {
	ex := Explore(model.Config{MaxSessions: 1, MaxAdmin: 1, Failover: true, WeakResumeFreshness: true}, nil, nil)
	o := find(t, ex.Obligations, "5.4a")
	if o.Holds {
		t.Fatal("checker failed to detect the weakened resume freshness guard")
	}
	if len(o.Witness) == 0 {
		t.Fatal("violation reported without a counterexample trace")
	}
	trace := strings.Join(o.Witness, "\n")
	if !strings.Contains(trace, "send Resume") {
		t.Errorf("counterexample does not involve a resumption:\n%s", trace)
	}

	// The mutation breaks ORDERING only: secrecy of P_a, K_a and K_r must
	// all survive, confirming the checker separates the failure classes.
	for _, id := range []string{"5.1", "5.2", "5.5", "5.4b"} {
		if o := find(t, ex.Obligations, id); !o.Holds {
			t.Errorf("unexpected break in weak-resume variant: %s", o)
		}
	}
}
