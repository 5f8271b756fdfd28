package model

import (
	"strings"
	"testing"
)

// findLegacyStep returns the unique successor matching actor and prefix.
func findLegacyStep(t *testing.T, sys *LegacySystem, s *LegacyState, actor, prefix string) LegacyStep {
	t.Helper()
	var matches []LegacyStep
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

// legacyConnect drives the legacy protocol to the state where A is
// connected with the initial group key.
func legacyConnect(t *testing.T, sys *LegacySystem, s *LegacyState) *LegacyState {
	t.Helper()
	s = findLegacyStep(t, sys, s, AgentUser, "send req_open").Next
	s = findLegacyStep(t, sys, s, AgentLeader, "accept req_open").Next
	s = findLegacyStep(t, sys, s, AgentUser, "accept ack_open").Next
	s = findLegacyStep(t, sys, s, AgentLeader, "accept auth1").Next
	s = findLegacyStep(t, sys, s, AgentUser, "accept auth2").Next
	s = findLegacyStep(t, sys, s, AgentLeader, "accept auth3").Next
	return s
}

func TestLegacyHappyPath(t *testing.T) {
	sys := NewLegacySystem(DefaultLegacyConfig())
	s := legacyConnect(t, sys, sys.Initial())
	if s.UsrPhase != LegUserConnected || s.LeadPhase != LegLeadConnected {
		t.Fatalf("not connected: %s", s)
	}
	if !s.UsrKg.Equal(s.LeadKg) {
		t.Errorf("group keys disagree: %s vs %s", s.UsrKg, s.LeadKg)
	}
	if !s.ViewHasB {
		t.Error("A's view must contain B after connecting")
	}
	if len(Violations(s)) != 0 {
		t.Errorf("violations in honest run: %v", Violations(s))
	}
}

func TestLegacyForgedDenialAttack(t *testing.T) {
	sys := NewLegacySystem(DefaultLegacyConfig())
	s := sys.Initial()
	s = findLegacyStep(t, sys, s, AgentUser, "send req_open").Next

	// The intruder forges the plaintext connection_denied.
	s = findLegacyStep(t, sys, s, AgentIntruder, "inject forged connection_denied").Next
	s = findLegacyStep(t, sys, s, AgentUser, "accept connection_denied").Next

	got := Violations(s)
	if len(got) != 1 || got[0] != ViolationForgedDenial {
		t.Fatalf("Violations = %v, want [%s]", got, ViolationForgedDenial)
	}
}

func TestLegacyMembershipForgeryAttack(t *testing.T) {
	sys := NewLegacySystem(DefaultLegacyConfig())
	s := legacyConnect(t, sys, sys.Initial())

	// E is a member, knows Kg0, and forges mem_removed(B).
	s = findLegacyStep(t, sys, s, AgentIntruder, "inject forged mem_removed(B)").Next
	s = findLegacyStep(t, sys, s, AgentUser, "accept mem_removed(B)").Next

	if s.ViewHasB {
		t.Fatal("A still believes B is present")
	}
	found := false
	for _, v := range Violations(s) {
		if v == ViolationMembership {
			found = true
		}
	}
	if !found {
		t.Fatalf("Violations = %v, want membership-forgery", Violations(s))
	}
}

func TestLegacyKeyRollbackAttack(t *testing.T) {
	sys := NewLegacySystem(DefaultLegacyConfig())
	s := legacyConnect(t, sys, sys.Initial())

	// L rekeys to Kg1 while E is still a member: E learns Kg1.
	s = findLegacyStep(t, sys, s, AgentLeader, "rekey").Next
	kg1 := s.LeadKg
	if !s.IK.Contains(kg1) {
		t.Fatal("member E did not learn the new group key")
	}
	s = findLegacyStep(t, sys, s, AgentUser, "accept new_key").Next

	// L expels E and rekeys to Kg2; E must NOT learn Kg2.
	s = findLegacyStep(t, sys, s, AgentLeader, "expel E").Next
	s = findLegacyStep(t, sys, s, AgentLeader, "rekey").Next
	kg2 := s.LeadKg
	if s.IK.Contains(kg2) {
		t.Fatal("expelled E learned the post-expulsion group key")
	}
	// A accepts the new key Kg2 — pick the step that installs kg2.
	var toKg2 *LegacyStep
	for _, st := range sys.Successors(s) {
		st := st
		if st.Actor == AgentUser && strings.HasPrefix(st.Action, "accept new_key") &&
			st.Next.UsrKg.Equal(kg2) {
			toKg2 = &st
		}
	}
	if toKg2 == nil {
		t.Fatal("A cannot accept the fresh rekey")
	}
	s = toKg2.Next

	// The old new_key message carrying Kg1 is still in the trace; A accepts
	// the replay and rolls back to a key the expelled member knows.
	var rollback *LegacyStep
	for _, st := range sys.Successors(s) {
		st := st
		if st.Actor == AgentUser && strings.HasPrefix(st.Action, "accept new_key") &&
			st.Next.UsrKg.Equal(kg1) {
			rollback = &st
		}
	}
	if rollback == nil {
		t.Fatal("replayed new_key not acceptable — rollback attack missing")
	}
	s = rollback.Next

	found := false
	for _, v := range Violations(s) {
		if v == ViolationKeyRollback {
			found = true
		}
	}
	if !found {
		t.Fatalf("Violations = %v, want group-key-rollback", Violations(s))
	}
}

func TestLegacyForcedCloseAttack(t *testing.T) {
	sys := NewLegacySystem(DefaultLegacyConfig())
	s := legacyConnect(t, sys, sys.Initial())

	// A never sends req_close; the intruder forges it in A's name.
	s = findLegacyStep(t, sys, s, AgentIntruder, "inject forged req_close").Next
	s = findLegacyStep(t, sys, s, AgentLeader, "accept req_close").Next

	got := Violations(s)
	if len(got) != 1 || got[0] != ViolationForcedClose {
		t.Fatalf("Violations = %v, want [%s]", got, ViolationForcedClose)
	}
	if s.UsrPhase != LegUserConnected {
		t.Errorf("A's phase = %s, want Connected: A never asked to leave", s.UsrPhase)
	}
}

func TestLegacyNoViolationsWithoutIntruderInterference(t *testing.T) {
	// An honest run with rekeys and the expulsion, but no replays or
	// forgeries, reaches no violation state.
	sys := NewLegacySystem(DefaultLegacyConfig())
	s := legacyConnect(t, sys, sys.Initial())
	s = findLegacyStep(t, sys, s, AgentLeader, "rekey").Next
	s = findLegacyStep(t, sys, s, AgentUser, "accept new_key").Next
	s = findLegacyStep(t, sys, s, AgentLeader, "expel E").Next
	s = findLegacyStep(t, sys, s, AgentLeader, "rekey").Next
	// Accept the freshest key.
	target := s.LeadKg
	for _, st := range sys.Successors(s) {
		if st.Actor == AgentUser && strings.HasPrefix(st.Action, "accept new_key") &&
			st.Next.UsrKg.Equal(target) {
			s = st.Next
			break
		}
	}
	if !s.UsrKg.Equal(target) {
		t.Fatal("could not complete honest rekey")
	}
	if v := Violations(s); len(v) != 0 {
		t.Errorf("violations in honest run: %v", v)
	}
}

func TestLegacyStateCloneIndependence(t *testing.T) {
	sys := NewLegacySystem(DefaultLegacyConfig())
	s := sys.Initial()
	key := s.Key()
	_ = sys.Successors(s)
	if s.Key() != key {
		t.Error("Successors mutated the source state")
	}
	c := s.Clone()
	c.UsrPhase = LegUserDenied
	if s.UsrPhase == LegUserDenied || s.Key() != key {
		t.Error("Clone shares storage with original")
	}
}

func TestLegacyPhaseStrings(t *testing.T) {
	if LegUserWaitKey.String() != "WaitKey" || LegLeadWaitAuthAck.String() != "WaitAuthAck" ||
		LegLeadClosed.String() != "Closed" {
		t.Error("legacy phase names wrong")
	}
}
