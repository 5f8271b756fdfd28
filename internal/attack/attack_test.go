package attack

import (
	"strings"
	"testing"
)

// media is every network the scenarios must reach the same verdict on: the
// in-memory one, and a leader behind a real TCP socket.
var media = []struct {
	name string
	net  Medium
}{{"mem", Memory}, {"tcp", TCP}}

func runScenario(t *testing.T, run func(Medium) (Outcome, error), wantSuccess bool) {
	t.Helper()
	for _, m := range media {
		t.Run(m.name, func(t *testing.T) {
			o, err := run(m.net)
			if err != nil {
				t.Fatalf("scenario error: %v", err)
			}
			if o.Succeeded != wantSuccess {
				t.Fatalf("attack outcome = %v, want %v: %s", o.Succeeded, wantSuccess, o.Detail)
			}
			if !o.AsExpected() {
				t.Fatalf("outcome disagrees with the paper: %s", o)
			}
		})
	}
}

func TestForgedDenied(t *testing.T) {
	runScenario(t, ForgedDenialLegacy, true)
}

func TestForgedDeniedImprovedResists(t *testing.T) {
	runScenario(t, ForgedDenialImproved, false)
}

func TestForgedMemRemoved(t *testing.T) {
	runScenario(t, MembershipForgeryLegacy, true)
}

func TestForgedMemRemovedImprovedResists(t *testing.T) {
	runScenario(t, MembershipForgeryImproved, false)
}

func TestReplayNewKey(t *testing.T) {
	runScenario(t, KeyRollbackLegacy, true)
}

func TestReplayNewKeyImprovedResists(t *testing.T) {
	runScenario(t, KeyRollbackImproved, false)
}

func TestForcedDisconnect(t *testing.T) {
	runScenario(t, ForcedDisconnectLegacy, true)
}

func TestForcedDisconnectImprovedResists(t *testing.T) {
	runScenario(t, ForcedDisconnectImproved, false)
}

func TestImprovedResistsAll(t *testing.T) {
	for _, s := range All() {
		if s.Protocol != "improved" {
			continue
		}
		s := s
		t.Run(s.ID, func(t *testing.T) { runScenario(t, s.Run, false) })
	}
}

// TestRunAll is the whole table on each medium: every attack succeeds against
// internal/legacy and every attack is rejected by the improved leader,
// whether the adversary sits on a pipe or on a socket.
func TestRunAll(t *testing.T) {
	for _, m := range media {
		t.Run(m.name, func(t *testing.T) {
			outcomes, err := RunAll(m.net)
			if err != nil {
				t.Fatal(err)
			}
			if len(outcomes) != 9 {
				t.Fatalf("got %d outcomes, want 9", len(outcomes))
			}
			for _, o := range outcomes {
				if !o.AsExpected() {
					t.Errorf("outcome disagrees with the paper: %s", o)
				}
				if want := o.Protocol == "legacy"; o.Succeeded != want {
					t.Errorf("%s/%s succeeded=%v over %s", o.ID, o.Protocol, o.Succeeded, m.name)
				}
			}
		})
	}
}

func TestOutcomeString(t *testing.T) {
	o := Outcome{ID: "A1", Name: "x", Protocol: "legacy", Succeeded: true, Expected: true, Detail: "d"}
	s := o.String()
	if !strings.Contains(s, "ATTACK SUCCEEDED") || !strings.Contains(s, "as the paper predicts") {
		t.Errorf("String = %q", s)
	}
	o.Expected = false
	if !strings.Contains(o.String(), "DISAGREES") {
		t.Errorf("String = %q", o.String())
	}
}

func TestOldSessionKeyCompromise(t *testing.T) {
	runScenario(t, OldSessionKeyCompromise, false)
}
