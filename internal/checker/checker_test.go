package checker

import (
	"strings"
	"testing"

	"enclaves/internal/model"
	"enclaves/internal/symbolic"
)

// exploreDefault caches the default-bound exploration across tests.
var defaultExploration *Exploration

func getExploration(t *testing.T) *Exploration {
	t.Helper()
	if defaultExploration == nil {
		defaultExploration = Explore(model.DefaultConfig())
	}
	return defaultExploration
}

func TestExploreReachesTerminalStates(t *testing.T) {
	ex := getExploration(t)
	if len(ex.Nodes) < 100 {
		t.Fatalf("suspiciously small state space: %d", len(ex.Nodes))
	}
	if len(ex.Edges) < len(ex.Nodes)-1 {
		t.Fatalf("edges (%d) cannot be fewer than states-1 (%d)", len(ex.Edges), len(ex.Nodes)-1)
	}
	if ex.Depth == 0 {
		t.Fatal("no depth recorded")
	}
	// Both user sessions must be exercised somewhere.
	maxSessions := 0
	for _, n := range ex.Nodes {
		if n.State.Sessions > maxSessions {
			maxSessions = n.State.Sessions
		}
	}
	if maxSessions != model.DefaultConfig().MaxSessions {
		t.Errorf("max sessions explored = %d, want %d", maxSessions, model.DefaultConfig().MaxSessions)
	}
}

func TestNodeTrace(t *testing.T) {
	ex := getExploration(t)
	// Find a deep node and check its trace length equals its depth.
	var deep *Node
	for _, n := range ex.Nodes {
		if deep == nil || n.Depth > deep.Depth {
			deep = n
		}
	}
	if got := len(deep.Trace()); got != deep.Depth {
		t.Errorf("trace length %d != depth %d", got, deep.Depth)
	}
}

func TestSecrecyLongTerm(t *testing.T) {
	if o := CheckSecrecyLongTerm(getExploration(t)); !o.Holds {
		t.Fatalf("5.1 violated: %s", o)
	}
}

func TestRegularity(t *testing.T) {
	if o := CheckRegularity(getExploration(t)); !o.Holds {
		t.Fatalf("regularity violated: %s", o)
	}
}

func TestSecrecySession(t *testing.T) {
	if o := CheckSecrecySession(getExploration(t)); !o.Holds {
		t.Fatalf("5.2 violated: %s", o)
	}
}

func TestOopsedKeysArePublic(t *testing.T) {
	o := CheckOopsedKeysArePublic(getExploration(t))
	if !o.Holds {
		t.Fatalf("oops sanity violated: %s", o)
	}
	// The check must not be vacuous: some states carry oops'd keys.
	if strings.Contains(o.Detail, " 0 oops") {
		t.Fatalf("no oops events observed: %s", o)
	}
}

func TestPrefix(t *testing.T) {
	o := CheckPrefixDelivery(getExploration(t))
	if !o.Holds {
		t.Fatalf("5.4a violated: %s", o)
	}
	if strings.Contains(o.Detail, "0 states with non-empty") {
		t.Fatal("prefix check is vacuous: rcv_A never non-empty")
	}
}

func TestAuthentication(t *testing.T) {
	if o := CheckAuthentication(getExploration(t)); !o.Holds {
		t.Fatalf("5.4b violated: %s", o)
	}
}

func TestAgreement(t *testing.T) {
	if o := CheckAgreement(getExploration(t)); !o.Holds {
		t.Fatalf("5.4c violated: %s", o)
	}
}

func TestKeyPossession(t *testing.T) {
	if o := CheckKeyPossession(getExploration(t)); !o.Holds {
		t.Fatalf("5.4d violated: %s", o)
	}
}

func TestDiagram(t *testing.T) {
	res := CheckDiagram(getExploration(t))
	for _, o := range res.Obligations {
		if !o.Holds {
			t.Errorf("diagram obligation failed: %s", o)
		}
	}
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
}

func TestDiagramClassifyDisjointUnderLargerBound(t *testing.T) {
	if testing.Short() {
		t.Skip("larger bound in -short mode")
	}
	ex := Explore(model.Config{MaxSessions: 3, MaxAdmin: 2})
	d := NewDiagram()
	for _, n := range ex.Nodes {
		if got := d.Classify(n.State); len(got) != 1 {
			t.Fatalf("state classified by %v: %s", got, n.State)
		}
	}
}

// --- non-vacuity: the invariant checkers must detect violations ---

// syntheticExploration wraps hand-crafted states in an Exploration so the
// checkers can be exercised on states that violate the properties.
func syntheticExploration(states ...*model.State) *Exploration {
	sys := model.NewSystem(model.DefaultConfig())
	ex := &Exploration{System: sys}
	for _, s := range states {
		ex.Nodes = append(ex.Nodes, &Node{State: s})
	}
	return ex
}

func TestCheckersDetectViolations(t *testing.T) {
	pa := symbolic.LongTermKey(model.AgentUser)

	t.Run("long-term key leak", func(t *testing.T) {
		s := model.NewInitialState()
		s.IK.Add(pa)
		if o := CheckSecrecyLongTerm(syntheticExploration(s)); o.Holds {
			t.Error("leak of P_a not detected")
		}
	})

	t.Run("session key leak", func(t *testing.T) {
		ka := symbolic.SessionKey(7)
		s := model.NewInitialState()
		s.Lead = model.LeaderState{Phase: model.LeadConnected, N: symbolic.Nonce(1), Ka: ka}
		s.IK.Add(ka)
		if o := CheckSecrecySession(syntheticExploration(s)); o.Holds {
			t.Error("leak of in-use K_a not detected")
		}
	})

	t.Run("prefix violation by duplicate", func(t *testing.T) {
		x := symbolic.Data("x")
		s := model.NewInitialState()
		s.SndA = []*symbolic.Field{x}
		s.RcvA = []*symbolic.Field{x, x}
		if o := CheckPrefixDelivery(syntheticExploration(s)); o.Holds {
			t.Error("duplicate acceptance not detected")
		}
	})

	t.Run("prefix violation by reordering", func(t *testing.T) {
		x, y := symbolic.Data("x"), symbolic.Data("y")
		s := model.NewInitialState()
		s.SndA = []*symbolic.Field{x, y}
		s.RcvA = []*symbolic.Field{y}
		if o := CheckPrefixDelivery(syntheticExploration(s)); o.Holds {
			t.Error("out-of-order acceptance not detected")
		}
	})

	t.Run("authentication violation", func(t *testing.T) {
		s := model.NewInitialState()
		s.AccL = 1
		s.ReqA = 0
		if o := CheckAuthentication(syntheticExploration(s)); o.Holds {
			t.Error("acceptance without request not detected")
		}
	})

	t.Run("agreement violation", func(t *testing.T) {
		s := model.NewInitialState()
		s.Usr = model.UserState{Phase: model.UserConnected, Na: symbolic.Nonce(1), Ka: symbolic.SessionKey(1)}
		s.Lead = model.LeaderState{Phase: model.LeadConnected, N: symbolic.Nonce(2), Ka: symbolic.SessionKey(1)}
		if o := CheckAgreement(syntheticExploration(s)); o.Holds {
			t.Error("nonce disagreement not detected")
		}
	})

	t.Run("possession violation", func(t *testing.T) {
		s := model.NewInitialState()
		s.Usr = model.UserState{Phase: model.UserConnected, Na: symbolic.Nonce(1), Ka: symbolic.SessionKey(1)}
		if o := CheckKeyPossession(syntheticExploration(s)); o.Holds {
			t.Error("user key unknown to leader not detected")
		}
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
	res := CheckDiagram(getExploration(t))
	dot := res.DOT()
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
	ex := getExploration(t)
	type phasePair struct {
		from, to string
	}
	userEdges := make(map[phasePair]bool)
	leadEdges := make(map[phasePair]bool)
	for _, e := range ex.Edges {
		fu, tu := e.From.State.Usr.Phase.String(), e.To.State.Usr.Phase.String()
		if fu != tu {
			userEdges[phasePair{fu, tu}] = true
		}
		fl, tl := e.From.State.Lead.Phase.String(), e.To.State.Lead.Phase.String()
		if fl != tl {
			leadEdges[phasePair{fl, tl}] = true
		}
	}
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
