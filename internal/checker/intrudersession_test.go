package checker

import (
	"testing"

	"enclaves/internal/model"
)

// TestInvariantsWithIntruderMemberSessions runs the full verification with
// the leader ALSO serving the compromised member E (Config.IntruderSessions):
// the attacker is now a first-class participant with its own authenticated
// sessions, admin stream, session keys, and closes. Every Section 5 property
// about the honest pair (A, L) must still hold, and the Figure 4 diagram
// must remain a valid abstraction of A's session.
func TestInvariantsWithIntruderMemberSessions(t *testing.T) {
	cfg := model.Config{MaxSessions: 2, MaxAdmin: 1, IntruderSessions: true}
	ex := Explore(cfg, nil, nil)

	plain := Explore(model.Config{MaxSessions: 2, MaxAdmin: 1}, nil, nil)
	if ex.States <= plain.States {
		t.Fatalf("intruder sessions did not enlarge the space: %d vs %d — feature inert?",
			ex.States, plain.States)
	}
	t.Logf("states: %d with intruder sessions vs %d without", ex.States, plain.States)

	holds(t, "with intruder sessions", ex.Obligations)
	holds(t, "by the diagram with intruder sessions", ex.Diagram.Obligations)
}

// TestIntruderSessionsActuallyRun asserts the feature is exercised: E joins,
// is accepted by the leader, receives admin messages, and closes (with its
// session key oops'd), all within the explored space.
func TestIntruderSessionsActuallyRun(t *testing.T) {
	var (
		eAccepted bool
		eAdmin    bool
		eClosed   bool
	)
	Explore(model.Config{MaxSessions: 1, MaxAdmin: 1, IntruderSessions: true}, nil, func(_ *Node, _ *model.State, st model.Step, _ *Node) {
		switch st.Action {
		case "accept AuthAckKey from E (E is a member)":
			eAccepted = true
		case "accept ReqClose from E, close, Oops(Ke)":
			eClosed = true
		}
		if st.Actor == model.AgentLeader && st.Emitted != nil &&
			st.Emitted.Receiver == model.AgentIntruder &&
			st.Emitted.Label == model.LabelAdminMsg {
			eAdmin = true
		}
	})
	if !eAccepted || !eAdmin || !eClosed {
		t.Errorf("E session lifecycle incomplete: accepted=%v admin=%v closed=%v",
			eAccepted, eAdmin, eClosed)
	}
}
