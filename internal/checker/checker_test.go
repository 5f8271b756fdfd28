package checker

import (
	"strings"
	"sync"
	"testing"

	"enclaves/internal/model"
	"enclaves/internal/symbolic"
)

// defaultExploration is the default-bound exploration, shared by the tests
// that read only its verdicts.
var defaultExploration = sync.OnceValue(func() *Exploration {
	return Explore(model.DefaultConfig(), nil, nil)
})

// find returns the verdict with the given ID.
func find(t *testing.T, obs []Obligation, id string) Obligation {
	t.Helper()
	for _, o := range obs {
		if o.ID == id {
			return o
		}
	}
	t.Fatalf("no obligation %s", id)
	return Obligation{}
}

// holds fails t for every obligation in obs that does not hold.
func holds(t *testing.T, what string, obs []Obligation) {
	t.Helper()
	for _, o := range obs {
		if !o.Holds {
			t.Errorf("obligation violated %s: %s", what, o)
		}
	}
}

func TestExploreReachesTerminalStates(t *testing.T) {
	maxSessions := 0
	ex := Explore(model.DefaultConfig(), func(_ *Node, s *model.State) {
		maxSessions = max(maxSessions, s.Sessions)
	}, nil)
	if ex.States < 100 {
		t.Fatalf("suspiciously small state space: %d", ex.States)
	}
	if ex.Transitions < ex.States-1 {
		t.Fatalf("transitions (%d) cannot be fewer than states-1 (%d)", ex.Transitions, ex.States-1)
	}
	if ex.Depth == 0 {
		t.Fatal("no depth recorded")
	}
	// Both user sessions must be exercised somewhere.
	if maxSessions != model.DefaultConfig().MaxSessions {
		t.Errorf("max sessions explored = %d, want %d", maxSessions, model.DefaultConfig().MaxSessions)
	}
}

func TestNodeTrace(t *testing.T) {
	// Find a deep node and check its trace length equals its depth.
	var deep *Node
	Explore(model.DefaultConfig(), func(n *Node, _ *model.State) {
		if deep == nil || n.Depth > deep.Depth {
			deep = n
		}
	}, nil)
	if got := len(deep.Trace()); got != deep.Depth {
		t.Errorf("trace length %d != depth %d", got, deep.Depth)
	}
}

func TestSecrecyLongTerm(t *testing.T) {
	if o := find(t, defaultExploration().Obligations, "5.1"); !o.Holds {
		t.Fatalf("5.1 violated: %s", o)
	}
}

func TestRegularity(t *testing.T) {
	o := find(t, defaultExploration().Obligations, "5.1r")
	if !o.Holds {
		t.Fatalf("regularity violated: %s", o)
	}
	if o.Detail == "0 honest sends" {
		t.Fatalf("regularity is vacuous: %s", o)
	}
}

func TestSecrecySession(t *testing.T) {
	if o := find(t, defaultExploration().Obligations, "5.2"); !o.Holds {
		t.Fatalf("5.2 violated: %s", o)
	}
}

func TestOopsedKeysArePublic(t *testing.T) {
	o := find(t, defaultExploration().Obligations, "5.2o")
	if !o.Holds {
		t.Fatalf("oops sanity violated: %s", o)
	}
	// The check must not be vacuous: some states carry oops'd keys.
	if strings.HasPrefix(o.Detail, "0 oops") {
		t.Fatalf("no oops events observed: %s", o)
	}
}

func TestPrefix(t *testing.T) {
	o := find(t, defaultExploration().Obligations, "5.4a")
	if !o.Holds {
		t.Fatalf("5.4a violated: %s", o)
	}
	if strings.HasPrefix(o.Detail, "0 states with non-empty") {
		t.Fatal("prefix check is vacuous: rcv_A never non-empty")
	}
}

func TestAuthentication(t *testing.T) {
	if o := find(t, defaultExploration().Obligations, "5.4b"); !o.Holds {
		t.Fatalf("5.4b violated: %s", o)
	}
}

func TestAgreement(t *testing.T) {
	if o := find(t, defaultExploration().Obligations, "5.4c"); !o.Holds {
		t.Fatalf("5.4c violated: %s", o)
	}
}

func TestKeyPossession(t *testing.T) {
	if o := find(t, defaultExploration().Obligations, "5.4d"); !o.Holds {
		t.Fatalf("5.4d violated: %s", o)
	}
}

func TestDiagram(t *testing.T) {
	res := defaultExploration().Diagram
	holds(t, "by the diagram", res.Obligations)
	// All 12 boxes must be inhabited at the default bound.
	if len(res.BoxCounts) != 12 {
		t.Errorf("inhabited boxes = %d, want 12 (%v)", len(res.BoxCounts), res.BoxCounts)
	}
	// The paper's core chain Q1 -> Q2 -> Q3 -> Q4 -> Q5 must be observed.
	for _, edge := range []string{"Q1 -> Q2", "Q2 -> Q3", "Q3 -> Q4", "Q4 -> Q5", "Q5 -> Q6"} {
		if res.EdgeCounts[edge] == 0 {
			t.Errorf("expected diagram edge %q not observed", edge)
		}
	}
	// The failover and LKH extensions live outside the diagram.
	if ex := Explore(model.Config{MaxSessions: 1, MaxAdmin: 1, Failover: true}, nil, nil); ex.Diagram != nil {
		t.Error("diagram checked on the failover extension")
	}
}

func TestDiagramClassifyDisjointUnderLargerBound(t *testing.T) {
	if testing.Short() {
		t.Skip("larger bound in -short mode")
	}
	ex := Explore(model.Config{MaxSessions: 3, MaxAdmin: 2}, nil, nil)
	if o := find(t, ex.Diagram.Obligations, "F4/total"); !o.Holds {
		t.Fatalf("boxes do not partition the (3,2) space: %s", o)
	}
}

// --- non-vacuity: the invariant checkers must detect violations ---

// verdictsOn runs every per-state predicate the explorer runs on the state
// via.Next, found at the root by the step via.
func verdictsOn(via model.Step) []Obligation {
	c := newChecks(model.NewSystem(model.DefaultConfig()))
	c.visit(&Node{}, via)
	obs, _ := c.verdicts()
	return obs
}

func TestCheckersDetectViolations(t *testing.T) {
	pa := symbolic.LongTermKey(model.AgentUser)
	detects := func(t *testing.T, s *model.State, id string) {
		t.Helper()
		if o := find(t, verdictsOn(model.Step{Next: s}), id); o.Holds {
			t.Errorf("%s holds on a violating state", id)
		}
	}

	t.Run("long-term key leak", func(t *testing.T) {
		s := model.NewInitialState()
		s.IK.Add(pa)
		detects(t, s, "5.1")
	})

	t.Run("session key leak", func(t *testing.T) {
		ka := symbolic.SessionKey(7)
		s := model.NewInitialState()
		s.Lead = model.LeaderState{Phase: model.LeadConnected, N: symbolic.Nonce(1), Ka: ka}
		s.IK.Add(ka)
		detects(t, s, "5.2")
	})

	t.Run("prefix violation by duplicate", func(t *testing.T) {
		x := symbolic.Data("x")
		s := model.NewInitialState()
		s.SndA = []*symbolic.Field{x}
		s.RcvA = []*symbolic.Field{x, x}
		detects(t, s, "5.4a")
	})

	t.Run("prefix violation by reordering", func(t *testing.T) {
		x, y := symbolic.Data("x"), symbolic.Data("y")
		s := model.NewInitialState()
		s.SndA = []*symbolic.Field{x, y}
		s.RcvA = []*symbolic.Field{y}
		detects(t, s, "5.4a")
	})

	t.Run("authentication violation", func(t *testing.T) {
		s := model.NewInitialState()
		s.AccL = 1
		s.ReqA = 0
		detects(t, s, "5.4b")
	})

	t.Run("agreement violation", func(t *testing.T) {
		s := model.NewInitialState()
		s.Usr = model.UserState{Phase: model.UserConnected, Na: symbolic.Nonce(1), Ka: symbolic.SessionKey(1)}
		s.Lead = model.LeaderState{Phase: model.LeadConnected, N: symbolic.Nonce(2), Ka: symbolic.SessionKey(1)}
		detects(t, s, "5.4c")
	})

	t.Run("possession violation", func(t *testing.T) {
		s := model.NewInitialState()
		s.Usr = model.UserState{Phase: model.UserConnected, Na: symbolic.Nonce(1), Ka: symbolic.SessionKey(1)}
		detects(t, s, "5.4d")
	})
}

func TestObligationString(t *testing.T) {
	o := Obligation{ID: "x", Name: "test", Holds: true, Detail: "42 states"}
	if !strings.Contains(o.String(), "PROVED") {
		t.Errorf("String = %q", o.String())
	}
	o.Holds = false
	o.Witness = []string{"step one", "step two"}
	s := o.String()
	if !strings.Contains(s, "VIOLATED") || !strings.Contains(s, "step two") {
		t.Errorf("String = %q", s)
	}
}

func TestDiagramDOT(t *testing.T) {
	dot := defaultExploration().Diagram.DOT()
	if !strings.Contains(dot, "digraph figure4") {
		t.Error("missing digraph header")
	}
	for _, box := range []string{"Q1", "Q12"} {
		if !strings.Contains(dot, box+" [label=") {
			t.Errorf("missing box %s", box)
		}
	}
	if !strings.Contains(dot, "Q3 -> Q4") {
		t.Error("missing core edge Q3 -> Q4")
	}
	if strings.Contains(dot, "Q1 -> Q1") {
		t.Error("self-loop rendered")
	}
}

// TestFigure23TransitionCoverage asserts that every edge of the Figure 2
// user FSM and Figure 3 leader FSM is exercised somewhere in the default
// exploration — the executable counterpart of "reproducing the figures".
func TestFigure23TransitionCoverage(t *testing.T) {
	type phasePair struct {
		from, to string
	}
	userEdges := make(map[phasePair]bool)
	leadEdges := make(map[phasePair]bool)
	Explore(model.DefaultConfig(), nil, func(_ *Node, s *model.State, st model.Step, _ *Node) {
		fu, tu := s.Usr.Phase.String(), st.Next.Usr.Phase.String()
		if fu != tu {
			userEdges[phasePair{fu, tu}] = true
		}
		fl, tl := s.Lead.Phase.String(), st.Next.Lead.Phase.String()
		if fl != tl {
			leadEdges[phasePair{fl, tl}] = true
		}
	})
	// Figure 2 (user A).
	for _, want := range []phasePair{
		{"NotConnected", "WaitingForKey"}, // join
		{"WaitingForKey", "Connected"},    // accept key dist
		{"Connected", "NotConnected"},     // leave
	} {
		if !userEdges[want] {
			t.Errorf("user FSM edge %s -> %s never exercised", want.from, want.to)
		}
	}
	// Figure 3 (leader, per A).
	for _, want := range []phasePair{
		{"NotConnected", "WaitingForKeyAck"}, // accept init req
		{"WaitingForKeyAck", "Connected"},    // accept key ack
		{"Connected", "WaitingForAck"},       // send admin
		{"WaitingForAck", "Connected"},       // accept ack
		{"Connected", "NotConnected"},        // close
		{"WaitingForAck", "NotConnected"},    // close with admin in flight
		{"WaitingForKeyAck", "NotConnected"}, // close before key ack
	} {
		if !leadEdges[want] {
			t.Errorf("leader FSM edge %s -> %s never exercised", want.from, want.to)
		}
	}
}
