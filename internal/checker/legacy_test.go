package checker

import (
	"strings"
	"testing"

	"enclaves/internal/model"
)

var legacyExploration *LegacyExploration

func getLegacyExploration(t *testing.T) *LegacyExploration {
	t.Helper()
	if legacyExploration == nil {
		legacyExploration = ExploreLegacy(model.DefaultLegacyConfig())
	}
	return legacyExploration
}

func TestForgedDenied(t *testing.T) {
	ex := getLegacyExploration(t)
	n, ok := ex.Attacks[model.ViolationForgedDenial]
	if !ok {
		t.Fatal("forged-denial attack not found in legacy model")
	}
	trace := strings.Join(n.Trace(), "\n")
	if !strings.Contains(trace, "forged connection_denied") {
		t.Errorf("attack trace does not involve the forged denial:\n%s", trace)
	}
}

func TestForgedMemRemoved(t *testing.T) {
	ex := getLegacyExploration(t)
	n, ok := ex.Attacks[model.ViolationMembership]
	if !ok {
		t.Fatal("membership-forgery attack not found in legacy model")
	}
	trace := strings.Join(n.Trace(), "\n")
	if !strings.Contains(trace, "forged mem_removed") {
		t.Errorf("attack trace does not involve the forged mem_removed:\n%s", trace)
	}
}

func TestReplayNewKey(t *testing.T) {
	ex := getLegacyExploration(t)
	n, ok := ex.Attacks[model.ViolationKeyRollback]
	if !ok {
		t.Fatal("key-rollback attack not found in legacy model")
	}
	// The end state has A on a key the intruder knows, older than A's max.
	s := n.State
	if !s.IK.Contains(s.UsrKg) {
		t.Error("rollback end state: intruder does not know A's group key")
	}
	if s.UsrKg.ID() >= s.UsrMaxKg {
		t.Error("rollback end state: A's key is not actually rolled back")
	}
}

// TestKeyRollbackNeedsPastMember pins A3 to the paper's attack: E is
// expelled before A accepts the replayed key, and at the end the group's
// real key is secret from E. A rollback among keys a current member holds
// anyway is no attack.
func TestKeyRollbackNeedsPastMember(t *testing.T) {
	n, ok := getLegacyExploration(t).Attacks[model.ViolationKeyRollback]
	if !ok {
		t.Fatal("key-rollback attack not found in legacy model")
	}
	trace := n.Trace()
	expel, lastAccept := -1, -1
	for i, step := range trace {
		if strings.Contains(step, "expel E") && expel < 0 {
			expel = i
		}
		if strings.Contains(step, "accept new_key") {
			lastAccept = i
		}
	}
	if expel < 0 || lastAccept < 0 || expel > lastAccept {
		t.Errorf("witness does not expel E before the replayed key is accepted:\n%s", strings.Join(trace, "\n"))
	}
	s := n.State
	if s.EMember {
		t.Error("rollback end state: E is still a member")
	}
	if s.IK.Contains(s.LeadKg) {
		t.Error("rollback end state: the intruder knows the group's current key")
	}
}

// TestForcedDisconnect is attack A4: the intruder forges A's plaintext
// req_close and the leader ends a session A never asked to close.
func TestForcedDisconnect(t *testing.T) {
	n, ok := getLegacyExploration(t).Attacks[model.ViolationForcedClose]
	if !ok {
		t.Fatal("forced-close attack not found in legacy model")
	}
	trace := strings.Join(n.Trace(), "\n")
	if !strings.Contains(trace, "inject forged req_close") {
		t.Errorf("attack trace does not involve the forged req_close:\n%s", trace)
	}
	if n.State.LeadPhase != model.LegLeadClosed {
		t.Errorf("end state leader phase = %s, want Closed", n.State.LeadPhase)
	}
}

func TestLegacyAttackTracesAreMinimalDepthFirstFound(t *testing.T) {
	ex := getLegacyExploration(t)
	// BFS guarantees the recorded witness has minimal depth; forged denial
	// needs exactly 3 steps (req_open, inject, accept).
	if n := ex.Attacks[model.ViolationForgedDenial]; n.Depth != 3 {
		t.Errorf("forged-denial depth = %d, want 3", n.Depth)
	}
}

func TestLegacyObligationsAllFound(t *testing.T) {
	obs := LegacyObligations(getLegacyExploration(t))
	if len(obs) != 4 {
		t.Fatalf("got %d legacy obligations, want 4", len(obs))
	}
	for _, o := range obs {
		if !o.Holds {
			t.Errorf("attack %s not found: %s", o.ID, o.Detail)
		}
		if len(o.Witness) == 0 {
			t.Errorf("attack %s has no witness trace", o.ID)
		}
	}
}

func TestRunReport(t *testing.T) {
	rep := Run(model.Config{MaxSessions: 1, MaxAdmin: 1}, model.LegacyConfig{MaxRekeys: 2})
	if !rep.AllHold() {
		t.Fatalf("report has failures:\n%s", rep)
	}
	s := rep.String()
	for _, want := range []string{
		"Improved Enclaves protocol",
		"secrecy of long-term key P_a",
		"Verification diagram",
		"Legacy Enclaves protocol",
		"ATTACK FOUND",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestRunReportDefaultBound(t *testing.T) {
	if testing.Short() {
		t.Skip("full verification in -short mode")
	}
	rep := Run(model.DefaultConfig(), model.DefaultLegacyConfig())
	if !rep.AllHold() {
		t.Fatalf("default-bound verification failed:\n%s", rep)
	}
}
