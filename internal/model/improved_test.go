package model

import (
	"strings"
	"testing"

	"enclaves/internal/symbolic"
)

// findStep returns the unique successor of s whose action starts with
// prefix, failing the test if absent or ambiguous.
func findStep(t *testing.T, sys *System, s *State, actor, prefix string) Step {
	t.Helper()
	var matches []Step
	for _, st := range sys.Successors(s) {
		if st.Actor == actor && strings.HasPrefix(st.Action, prefix) {
			matches = append(matches, st)
		}
	}
	if len(matches) != 1 {
		t.Fatalf("expected exactly one step %s:%q, got %d (state %s)", actor, prefix, len(matches), s)
	}
	return matches[0]
}

// hasStep reports whether any successor matches actor and action prefix.
func hasStep(sys *System, s *State, actor, prefix string) bool {
	for _, st := range sys.Successors(s) {
		if st.Actor == actor && strings.HasPrefix(st.Action, prefix) {
			return true
		}
	}
	return false
}

// runHappyJoin drives a complete join handshake and returns the state where
// both A and L are Connected. When stale AuthInitReq messages from earlier
// sessions are replayable, the step consuming A's current nonce is chosen.
func runHappyJoin(t *testing.T, sys *System, s *State) *State {
	t.Helper()
	s = findStep(t, sys, s, AgentUser, "join").Next

	na := s.Usr.Na
	var linked []Step
	for _, st := range sys.Successors(s) {
		if st.Actor != AgentLeader || !strings.HasPrefix(st.Action, "accept AuthInitReq") {
			continue
		}
		if st.Consumed.Body().Components()[2].Equal(na) {
			linked = append(linked, st)
		}
	}
	if len(linked) != 1 {
		t.Fatalf("expected exactly one AuthInitReq accept for %s, got %d", na, len(linked))
	}
	s = linked[0].Next

	s = findStep(t, sys, s, AgentUser, "accept AuthKeyDist").Next
	s = findStep(t, sys, s, AgentLeader, "accept AuthAckKey").Next
	return s
}

func TestUserFSMHappyPath(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	s := sys.Initial()

	if s.Usr.Phase != UserNotConnected || s.Lead.Phase != LeadNotConnected {
		t.Fatal("initial state must be NotConnected/NotConnected")
	}

	s = findStep(t, sys, s, AgentUser, "join").Next
	if s.Usr.Phase != UserWaitingForKey || s.Usr.Na == nil {
		t.Fatalf("after join: %s", s.Usr)
	}
	if s.ReqA != 1 || s.Sessions != 1 {
		t.Fatalf("counters after join: ReqA=%d Sessions=%d", s.ReqA, s.Sessions)
	}

	s = findStep(t, sys, s, AgentLeader, "accept AuthInitReq").Next
	if s.Lead.Phase != LeadWaitingForKeyAck || s.Lead.Ka == nil {
		t.Fatalf("after init req: %s", s.Lead)
	}

	s = findStep(t, sys, s, AgentUser, "accept AuthKeyDist").Next
	if s.Usr.Phase != UserConnected {
		t.Fatalf("after key dist: %s", s.Usr)
	}
	if !s.Usr.Ka.Equal(s.Lead.Ka) {
		t.Errorf("user key %s != leader key %s", s.Usr.Ka, s.Lead.Ka)
	}

	s = findStep(t, sys, s, AgentLeader, "accept AuthAckKey").Next
	if s.Lead.Phase != LeadConnected {
		t.Fatalf("after key ack: %s", s.Lead)
	}
	if s.AccL != 1 {
		t.Errorf("AccL = %d, want 1", s.AccL)
	}
	// Agreement: both Connected implies same nonce and key (Section 5.4).
	if !s.Usr.Na.Equal(s.Lead.N) || !s.Usr.Ka.Equal(s.Lead.Ka) {
		t.Errorf("agreement violated: usr=%s lead=%s", s.Usr, s.Lead)
	}
}

func TestLeaderFSMAdminExchange(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	s := runHappyJoin(t, sys, sys.Initial())

	s = findStep(t, sys, s, AgentLeader, "send AdminMsg").Next
	if s.Lead.Phase != LeadWaitingForAck {
		t.Fatalf("after send admin: %s", s.Lead)
	}
	if len(s.SndA) != 1 {
		t.Fatalf("snd_A = %v, want 1 element", s.SndA)
	}

	s = findStep(t, sys, s, AgentUser, "accept AdminMsg").Next
	if len(s.RcvA) != 1 || !s.RcvA[0].Equal(s.SndA[0]) {
		t.Fatalf("rcv_A = %v, snd_A = %v", s.RcvA, s.SndA)
	}

	s = findStep(t, sys, s, AgentLeader, "accept Ack").Next
	if s.Lead.Phase != LeadConnected {
		t.Fatalf("after ack: %s", s.Lead)
	}
	if !s.Usr.Na.Equal(s.Lead.N) {
		t.Errorf("nonce agreement violated after admin round: usr=%s lead=%s", s.Usr, s.Lead)
	}
}

func TestLeaveClosesAndOopses(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	s := runHappyJoin(t, sys, sys.Initial())
	ka := s.Usr.Ka

	s = findStep(t, sys, s, AgentUser, "leave").Next
	if s.Usr.Phase != UserNotConnected {
		t.Fatalf("after leave: %s", s.Usr)
	}

	s = findStep(t, sys, s, AgentLeader, "accept ReqClose").Next
	if s.Lead.Phase != LeadNotConnected {
		t.Fatalf("after close: %s", s.Lead)
	}
	if !s.Oopsed.Contains(ka) {
		t.Error("closed session key was not oops'd")
	}
	// The oops'd key is now public: the intruder knows it.
	if !s.IK.Contains(ka) {
		t.Error("intruder did not learn the oops'd key")
	}
}

func TestAdminReplayRejected(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	s := runHappyJoin(t, sys, sys.Initial())
	s = findStep(t, sys, s, AgentLeader, "send AdminMsg").Next
	s = findStep(t, sys, s, AgentUser, "accept AdminMsg").Next

	// The AdminMsg is still in the trace (networks replay), but A's nonce
	// has advanced, so no accept-AdminMsg transition may be enabled until
	// the leader sends a fresh one.
	if hasStep(sys, s, AgentUser, "accept AdminMsg") {
		t.Error("user accepted a replayed AdminMsg")
	}
}

func TestKeyDistReplayFromEarlierSessionRejected(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	s := runHappyJoin(t, sys, sys.Initial())

	// Close session 1 entirely.
	s = findStep(t, sys, s, AgentUser, "leave").Next
	s = findStep(t, sys, s, AgentLeader, "accept ReqClose").Next

	// Session 2: A sends a fresh AuthInitReq. The old AuthKeyDist (bound to
	// the old nonce) must not be acceptable.
	s = findStep(t, sys, s, AgentUser, "join").Next
	if hasStep(sys, s, AgentUser, "accept AuthKeyDist") {
		t.Error("user accepted a stale AuthKeyDist from a previous session")
	}
}

func TestOldSessionKeyCannotCloseNewSession(t *testing.T) {
	sys := NewSystem(Config{MaxSessions: 2, MaxAdmin: 1})
	s := runHappyJoin(t, sys, sys.Initial())
	s = findStep(t, sys, s, AgentUser, "leave").Next
	s = findStep(t, sys, s, AgentLeader, "accept ReqClose").Next

	// Second full join.
	s = runHappyJoin(t, sys, s)

	// The old ReqClose message {A,L}_Ka1 is still in the trace and Ka1 is
	// public, but L's current session uses Ka2: no close transition may be
	// triggered by the stale message; only A's own fresh leave can.
	for _, st := range sys.Successors(s) {
		if st.Actor == AgentLeader && strings.HasPrefix(st.Action, "accept ReqClose") {
			t.Errorf("leader accepted a stale/forged ReqClose: %s", st)
		}
	}
}

func TestIntruderCannotForgeUnderSecretKeys(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	s := runHappyJoin(t, sys, sys.Initial())

	// While the session key is secret and P_a is secret, the intruder has
	// no injection that any honest guard would accept.
	for _, st := range sys.Successors(s) {
		if st.Actor == AgentIntruder {
			t.Errorf("unexpected intruder injection: %s", st)
		}
	}
}

func TestIntruderCanForgeAfterKeyCompromise(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	s := runHappyJoin(t, sys, sys.Initial())

	// Close session 1: Ka1 becomes public via Oops.
	s = findStep(t, sys, s, AgentUser, "leave").Next
	s = findStep(t, sys, s, AgentLeader, "accept ReqClose").Next

	// Start session 2 up to the point where L waits for a key ack under a
	// NEW key; the intruder may now synthesize junk under Ka1, but nothing
	// under Ka2. Verify all injections use only compromised keys.
	s = runHappyJoin(t, sys, s)
	for _, st := range sys.Successors(s) {
		if st.Actor != AgentIntruder {
			continue
		}
		key := st.Emitted.Content.EncKey()
		if !s.Oopsed.Contains(key) && !key.Equal(symbolic.LongTermKey(AgentIntruder)) && key.ID() >= 0 {
			t.Errorf("intruder forged under non-compromised key %s: %s", key, st)
		}
	}
}

func TestStateCloneIndependence(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	s := sys.Initial()
	before := s.Key()
	_ = sys.Successors(s)
	if s.Key() != before {
		t.Error("Successors mutated the source state")
	}

	c := s.Clone()
	c.record(Msg{Label: LabelReqClose, Sender: "x", Receiver: "y", Content: symbolic.Nonce(99)})
	c.SndA = append(c.SndA, symbolic.Data("z"))
	if len(s.Net) != 0 || len(s.SndA) != 0 {
		t.Error("Clone shares storage with original")
	}
}

func TestStateKeyDistinguishesStates(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	s := sys.Initial()
	s2 := findStep(t, sys, s, AgentUser, "join").Next
	if s.Key() == s2.Key() {
		t.Error("distinct states share a key")
	}
	if s.Key() != sys.Initial().Key() {
		t.Error("identical states have different keys")
	}
}

func TestMaxSessionsBoundsJoins(t *testing.T) {
	sys := NewSystem(Config{MaxSessions: 1, MaxAdmin: 1})
	s := runHappyJoin(t, sys, sys.Initial())
	s = findStep(t, sys, s, AgentUser, "leave").Next
	s = findStep(t, sys, s, AgentLeader, "accept ReqClose").Next
	if hasStep(sys, s, AgentUser, "join") {
		t.Error("join enabled beyond MaxSessions")
	}
}

func TestMaxAdminBoundsAdminMessages(t *testing.T) {
	sys := NewSystem(Config{MaxSessions: 1, MaxAdmin: 1})
	s := runHappyJoin(t, sys, sys.Initial())
	s = findStep(t, sys, s, AgentLeader, "send AdminMsg").Next
	s = findStep(t, sys, s, AgentUser, "accept AdminMsg").Next
	s = findStep(t, sys, s, AgentLeader, "accept Ack").Next
	if hasStep(sys, s, AgentLeader, "send AdminMsg") {
		t.Error("admin send enabled beyond MaxAdmin")
	}
}

func TestInUse(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	s := runHappyJoin(t, sys, sys.Initial())
	if !s.Lead.InUse(s.Usr.Ka) {
		t.Error("connected session key not reported in use")
	}
	if s.Lead.InUse(symbolic.SessionKey(999)) {
		t.Error("unrelated key reported in use")
	}
	var idle LeaderState
	idle.Phase = LeadNotConnected
	if idle.InUse(s.Usr.Ka) {
		t.Error("NotConnected leader reports a key in use")
	}
}

func TestMsgKeyIgnoresEndpointMetadata(t *testing.T) {
	c := symbolic.Enc(symbolic.Pair(symbolic.Agent("A"), symbolic.Agent("L")), symbolic.SessionKey(1))
	m1 := Msg{Label: LabelReqClose, Sender: "A", Receiver: "L", Content: c}
	m2 := Msg{Label: LabelReqClose, Sender: "E", Receiver: "L", Content: c}
	if m1.Key() != m2.Key() {
		t.Error("Msg.Key depends on forgeable endpoint metadata")
	}
	m3 := Msg{Label: LabelAck, Sender: "A", Receiver: "L", Content: c}
	if m1.Key() == m3.Key() {
		t.Error("Msg.Key ignores the label")
	}
}

func TestLabelStrings(t *testing.T) {
	if LabelAuthInitReq.String() != "AuthInitReq" || LabelOops.String() != "Oops" {
		t.Error("label names wrong")
	}
	if Label(200).String() == "" {
		t.Error("unknown label must still render")
	}
}

// TestAtomsOfKindCanonicalOrder pins the order the intruder's injections
// are enumerated in: the atoms of one kind, sorted by canonical encoding,
// exactly as filtering the whole sorted knowledge set would give them.
func TestAtomsOfKindCanonicalOrder(t *testing.T) {
	ik := NewInitialState().IK
	for _, f := range []*symbolic.Field{
		symbolic.Nonce(12), symbolic.SessionKey(3), symbolic.Data("s0m1"), symbolic.Nonce(2),
		symbolic.Pair(symbolic.Nonce(40), symbolic.SessionKey(0)), symbolic.SessionKey(11),
		symbolic.Enc(symbolic.Nonce(7), symbolic.SessionKey(5)), symbolic.Data("f1m1"), symbolic.Nonce(1 << 20),
	} {
		symbolic.AnalzAdd(ik, f)
	}
	for _, k := range []symbolic.Kind{symbolic.KindNonce, symbolic.KindKey, symbolic.KindData} {
		var want []string
		for _, f := range ik.Fields() {
			if f.Kind() == k {
				want = append(want, f.Canon())
			}
		}
		var got []string
		for _, f := range atomsOfKind(ik, k) {
			got = append(got, f.Canon())
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("atomsOfKind(%s) = %v, want %v", k, got, want)
		}
	}
}
