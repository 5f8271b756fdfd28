package attack

import (
	"strings"
	"sync"
	"testing"

	"enclaves/internal/checker"
	"enclaves/internal/model"
)

// media is every network the scenarios must reach the same verdict on: the
// in-memory one, and a leader behind a real TCP socket.
var media = []struct {
	name string
	net  Medium
}{{"mem", Memory}, {"tcp", TCP}}

// runScenario runs one attack on every medium; the improved protocol must
// reject it on each.
func runScenario(t *testing.T, run func(Medium) (Outcome, error)) {
	t.Helper()
	for _, m := range media {
		t.Run(m.name, func(t *testing.T) {
			o, err := run(m.net)
			if err != nil {
				t.Fatalf("scenario error: %v", err)
			}
			if o.Succeeded {
				t.Fatalf("attack succeeded against the improved protocol: %s", o.Detail)
			}
		})
	}
}

// legacyModel is the checker's exploration of the Section 2.2 protocol, which
// exists only as internal/model; the paired tests below share it.
var legacyModel = sync.OnceValue(func() *checker.LegacyExploration {
	return checker.ExploreLegacy(model.DefaultLegacyConfig(), nil)
})

// runPair is one Section 2.3 attack from both sides: the checker finds it
// against the legacy protocol, and the improved protocol rejects it on every
// medium.
func runPair(t *testing.T, goal model.LegacyViolation, run func(Medium) (Outcome, error)) {
	t.Helper()
	if _, ok := legacyModel().Attacks[goal]; !ok {
		t.Fatalf("%s: the checker finds no counterexample against the legacy protocol", goal)
	}
	runScenario(t, run)
}

func TestForgedDenied(t *testing.T) {
	runPair(t, model.ViolationForgedDenial, ForgedDenialImproved)
}

func TestForgedDeniedImprovedResists(t *testing.T) {
	runScenario(t, ForgedDenialImproved)
}

func TestForgedMemRemoved(t *testing.T) {
	runPair(t, model.ViolationMembership, MembershipForgeryImproved)
}

func TestForgedMemRemovedImprovedResists(t *testing.T) {
	runScenario(t, MembershipForgeryImproved)
}

func TestReplayNewKey(t *testing.T) {
	runPair(t, model.ViolationKeyRollback, KeyRollbackImproved)
}

func TestReplayNewKeyImprovedResists(t *testing.T) {
	runScenario(t, KeyRollbackImproved)
}

func TestForcedDisconnect(t *testing.T) {
	runPair(t, model.ViolationForcedClose, ForcedDisconnectImproved)
}

func TestForcedDisconnectImprovedResists(t *testing.T) {
	runScenario(t, ForcedDisconnectImproved)
}

func TestImprovedResistsAll(t *testing.T) {
	for _, s := range All() {
		t.Run(s.ID, func(t *testing.T) { runScenario(t, s.Run) })
	}
}

// TestRunAll is the whole table on each medium: every attack is rejected by
// the improved leader, whether the adversary sits on a pipe or on a socket.
func TestRunAll(t *testing.T) {
	for _, m := range media {
		t.Run(m.name, func(t *testing.T) {
			outcomes, err := RunAll(m.net)
			if err != nil {
				t.Fatal(err)
			}
			if len(outcomes) != 5 {
				t.Fatalf("got %d outcomes, want 5", len(outcomes))
			}
			for _, o := range outcomes {
				if o.Succeeded {
					t.Errorf("%s succeeded over %s: %s", o.ID, m.name, o)
				}
			}
		})
	}
}

func TestOutcomeString(t *testing.T) {
	o := Outcome{ID: "A1", Name: "x", Detail: "d"}
	s := o.String()
	if !strings.Contains(s, "ATTACK FAILED") || !strings.Contains(s, "as the paper predicts") {
		t.Errorf("String = %q", s)
	}
	o.Succeeded = true
	if s := o.String(); !strings.Contains(s, "ATTACK SUCCEEDED") || !strings.Contains(s, "DISAGREES") {
		t.Errorf("String = %q", s)
	}
}

func TestOldSessionKeyCompromise(t *testing.T) {
	runScenario(t, OldSessionKeyCompromise)
}
