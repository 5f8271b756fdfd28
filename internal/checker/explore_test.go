package checker

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"enclaves/internal/model"
	"enclaves/internal/symbolic"
)

// TestExploreDeterministic pins the exploration order: for each config, a
// digest of the node keys in discovery order, the state and transition
// counts and the depth. The constants predate the sequential search, so a
// changed order — and with it a changed counterexample witness — fails
// here.
func TestExploreDeterministic(t *testing.T) {
	for _, tc := range []struct {
		cfg                 model.Config
		states, transitions int
		depth               int
		digest              string
	}{
		{model.Config{MaxSessions: 2, MaxAdmin: 2}, 258, 326, 23, "0ff49a89e46334d9"},
		{model.Config{MaxSessions: 3, MaxAdmin: 2}, 1791, 2277, 34, "52cf8d1f95122918"},
		{model.Config{MaxSessions: 2, MaxAdmin: 2, LKH: true, Failover: true}, 16340, 25332, 39, "cff3d36c762abfb6"},
		{model.Config{MaxSessions: 1, MaxAdmin: 2, IntruderSessions: true}, 713, 1657, 23, "b2ac0e0768dfa0be"},
	} {
		cfg := tc.cfg
		name := fmt.Sprintf("s%d_a%d_lkh%t_is%t", cfg.MaxSessions, cfg.MaxAdmin, cfg.LKH, cfg.IntruderSessions)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			h := sha256.New()
			ex := Explore(cfg, func(_ *Node, s *model.State) {
				h.Write([]byte(s.Key()))
				h.Write([]byte{'\n'})
			}, nil)
			digest := fmt.Sprintf("%x", h.Sum(nil)[:8])
			if ex.States != tc.states || ex.Transitions != tc.transitions || ex.Depth != tc.depth || digest != tc.digest {
				t.Fatalf("got %d states, %d transitions, depth %d, digest %s; want %d, %d, %d, %s",
					ex.States, ex.Transitions, ex.Depth, digest, tc.states, tc.transitions, tc.depth, tc.digest)
			}
		})
	}
}

// TestExposureFollowsParts pins the Parts clause of 5.1, 5.5 and 5.6: a
// protected key used only to seal a message is not exposed, one carried
// inside a pair inside an encrypted body is, and a state reached by a step
// emitting it fails its obligation with the Parts detail.
func TestExposureFollowsParts(t *testing.T) {
	sys := model.NewSystem(model.DefaultConfig())
	a, k := symbolic.Agent(model.AgentUser), symbolic.SessionKey(9)
	for _, tc := range []struct {
		key  *symbolic.Field
		flag exposure
		id   string
		name string
	}{
		{sys.LongTermKey(), exposesPa, "5.1", "P_a"},
		{sys.ReplKey(), exposesKr, "5.5", "K_r"},
		{sys.SubtreeKey(), exposesKs, "5.6", "K_s"},
	} {
		if e := exposureOf(sys, symbolic.Enc(a, tc.key)); e != 0 {
			t.Errorf("{A}_%s exposes %b, want nothing", tc.name, e)
		}
		leak := symbolic.Enc(symbolic.Pair(a, symbolic.Pair(symbolic.Nonce(1), tc.key)), k)
		if e := exposureOf(sys, leak); e != tc.flag {
			t.Errorf("%s exposes %b, want %b", leak, e, tc.flag)
		}

		if o := find(t, verdictsOn(model.Step{Next: model.NewInitialState()}), tc.id); !o.Holds {
			t.Fatalf("%s fails on an unexposed state: %s", o.ID, o.Detail)
		}
		via := model.Step{Emitted: &model.Msg{Content: leak}, Next: model.NewInitialState()}
		o := find(t, verdictsOn(via), tc.id)
		if o.Holds || !strings.Contains(o.Detail, tc.name+" occurs in Parts(trace)") {
			t.Errorf("%s holds or blames the wrong clause with %s exposed: %s", o.ID, tc.name, o.Detail)
		}
	}
}

// TestRunOptsExtensionsConcurrent checks that Run discharges the extension
// ablations (failover+lkh, intruder-sessions) alongside the main config and
// folds their verdicts into AllHold.
func TestRunOptsExtensionsConcurrent(t *testing.T) {
	rep := Run(model.Config{MaxSessions: 1, MaxAdmin: 1}, model.LegacyConfig{MaxRekeys: 1})
	if len(rep.Extensions) != 2 {
		t.Fatalf("want 2 extension ablations, got %d", len(rep.Extensions))
	}
	names := map[string]bool{}
	for _, e := range rep.Extensions {
		names[e.Name] = true
		if e.States == 0 || len(e.Obligations) == 0 {
			t.Fatalf("extension %q explored nothing: %+v", e.Name, e)
		}
		for _, o := range e.Obligations {
			if !o.Holds {
				t.Fatalf("extension %q violates %s: %s", e.Name, o.ID, o.Detail)
			}
		}
	}
	if !names["failover+lkh"] || !names["intruder-sessions"] {
		t.Fatalf("unexpected extension set: %v", names)
	}
	if rep.TotalStates() <= rep.States {
		t.Fatalf("TotalStates %d does not include ablations (main %d)", rep.TotalStates(), rep.States)
	}

	// A config that already enables an extension must not re-run it.
	rep = Run(model.Config{MaxSessions: 1, MaxAdmin: 1, Failover: true, LKH: true, IntruderSessions: true},
		model.LegacyConfig{MaxRekeys: 1})
	if len(rep.Extensions) != 0 {
		t.Fatalf("fully-enabled config still ran %d ablations", len(rep.Extensions))
	}
}
