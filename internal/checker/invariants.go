package checker

import (
	"fmt"

	"enclaves/internal/model"
	"enclaves/internal/symbolic"
)

// This file discharges the state invariants of Sections 5.1, 5.2 and the
// derived properties of Section 5.4, each as a predicate run on a state
// when the search finds it, plus the regularity lemma, run on each
// transition when the search generates it.

// checks holds the running verdict of every obligation on one exploration
// of the improved model. visit and edge are the explorer's callbacks;
// verdicts reports the outcome.
type checks struct {
	sys         *model.System
	invariants  []*invariant
	diagram     *diagramCheck // nil when Figure 4 does not apply
	states      int
	transitions int
	// honestSends counts the emissions by A and L that regularity checked;
	// irregular is the first one containing P_a.
	honestSends int
	irregular   *Obligation
}

// invariant is one per-state obligation. check returns "" when s satisfies
// it and the failure detail otherwise; the first failure decides the
// obligation. detail renders the statistic a PROVED verdict reports.
type invariant struct {
	id, name string
	check    func(n *Node, s *model.State) string
	detail   func() string
	failed   *Obligation
}

func newChecks(sys *model.System) *checks {
	c := &checks{sys: sys}
	c.invariants = c.newInvariants()
	if cfg := sys.Config(); !cfg.Failover && !cfg.LKH {
		c.diagram = newDiagramCheck()
	}
	return c
}

// visit checks the state via.Next, just found at n: it records which
// protected keys n's trace exposes, runs every per-state invariant still
// undecided, and classifies the state against Figure 4.
func (c *checks) visit(n *Node, via model.Step) {
	c.states++
	if n.Parent != nil {
		n.exposed = n.Parent.exposed
	}
	if via.Emitted != nil {
		n.exposed |= exposureOf(c.sys, via.Emitted.Content)
	}
	for _, inv := range c.invariants {
		if inv.failed != nil {
			continue
		}
		if detail := inv.check(n, via.Next); detail != "" {
			inv.failed = fail(inv.id, inv.name, detail, n)
		}
	}
	if c.diagram != nil {
		c.diagram.visit(n, via.Next)
	}
}

// edge checks the transition st from `from` to `to`: the regularity lemma's
// premise (Section 5.1) — no transition by A or L ever emits a message
// containing P_a as a part — and Figure 4's edge obligations.
func (c *checks) edge(from *Node, st model.Step, to *Node) {
	c.transitions++
	if st.Actor != model.AgentIntruder && st.Emitted != nil {
		c.honestSends++
		if c.irregular == nil && exposureOf(c.sys, st.Emitted.Content)&exposesPa != 0 {
			c.irregular = fail("5.1r", regularity, fmt.Sprintf("%s emits P_a in %s", st.Actor, st.Emitted), to)
		}
	}
	if c.diagram != nil {
		c.diagram.edge(from, st, to)
	}
}

const regularity = "protocol regularity (honest agents never send P_a)"

// verdicts returns every obligation's verdict in report order, and the
// Figure 4 result when the diagram applies.
func (c *checks) verdicts() ([]Obligation, *DiagramResult) {
	reg := c.irregular
	if reg == nil {
		reg = pass("5.1r", regularity, fmt.Sprintf("%d honest sends", c.honestSends))
	}
	out := []Obligation{*reg}
	for _, inv := range c.invariants {
		o := inv.failed
		if o == nil {
			o = pass(inv.id, inv.name, inv.detail())
		}
		out = append(out, *o)
	}
	if c.diagram == nil {
		return out, nil
	}
	return out, c.diagram.result(c.states, c.transitions)
}

// newInvariants returns the per-state obligations in report order: 5.1,
// 5.2, the extension obligations 5.5 (replication-key secrecy) and 5.6 (LKH
// tree-key forward secrecy), which hold vacuously when their extension is
// off, the model-sanity check 5.2o, and the Section 5.4 properties.
func (c *checks) newInvariants() []*invariant {
	cfg := c.sys.Config()
	pa, kr, ks := c.sys.LongTermKey(), c.sys.ReplKey(), c.sys.SubtreeKey()
	var inUse, live, oopsed, nonEmpty, accepts, both, held int
	count := func(format string, n *int) func() string {
		return func() string { return fmt.Sprintf(format, *n) }
	}
	live56 := count("%d states with a live TK", &live)
	if !cfg.LKH {
		live56 = func() string { return "vacuous: LKH disabled" }
	}
	return []*invariant{{
		// Section 5.1: in every reachable state, A's long-term key P_a
		// occurs nowhere in the trace (the regularity consequence) and is
		// not in the intruder's knowledge:
		//
		//	∀G: P_a ∈ Know(G, q) ⇒ G = A ∨ G = L.
		id: "5.1", name: "secrecy of long-term key P_a",
		check: func(n *Node, s *model.State) string {
			if n.exposed&exposesPa != 0 {
				return fmt.Sprintf("P_a occurs in Parts(trace) at %s", s)
			}
			if s.IK.Contains(pa) {
				return fmt.Sprintf("intruder knows P_a at %s", s)
			}
			return ""
		},
		detail: count("%d states", &c.states),
	}, {
		// Section 5.2: for every in-use session key K_a,
		//
		//	InUse(K_a, q) ∧ K_a ∈ Know(G, q) ⇒ G = A ∨ G = L,
		//
		// via the stronger coideal invariant trace(q) ⊆ C({K_a, P_a}). With
		// the failover extension the protecting set generalizes to {K_a,
		// P_a, K_r}: replication deltas carry the in-use K_a sealed under
		// K_r, so session-key secrecy holds exactly as far as K_r does (5.5).
		id: "5.2", name: "secrecy of in-use session keys K_a",
		check: func(n *Node, s *model.State) string {
			if s.Lead.Phase == model.LeadNotConnected {
				return ""
			}
			ka := s.Lead.Ka
			inUse++
			ideal := symbolic.NewSet(ka, pa)
			if cfg.Failover {
				ideal.Add(kr)
			}
			if !symbolic.SetInCoideal(s.TraceContents(), ideal) {
				return fmt.Sprintf("trace escapes C({K_a,P_a}) for %s at %s", ka, s)
			}
			if s.IK.Contains(ka) {
				return fmt.Sprintf("intruder knows in-use %s at %s", ka, s)
			}
			return ""
		},
		detail: count("%d states with a key in use", &inUse),
	}, {
		// The failover extension's counterpart of 5.1 for the replication
		// key: K_r occurs nowhere in the trace and never enters the
		// intruder's knowledge. K_r is pre-shared between primary and
		// standby and only ever used as a sealing key, so it inherits the
		// regularity argument of P_a — and with it, via the generalized 5.2
		// ideal, the secrecy of every replicated session key.
		id: "5.5", name: "secrecy of replication key K_r",
		check: func(n *Node, s *model.State) string {
			if n.exposed&exposesKr != 0 {
				return fmt.Sprintf("K_r occurs in Parts(trace) at %s", s)
			}
			if s.IK.Contains(kr) {
				return fmt.Sprintf("intruder knows K_r at %s", s)
			}
			return ""
		},
		detail: count("%d states", &c.states),
	}, {
		// The LKH extension's forward secrecy: the subtree key K_s behaves
		// like P_a and K_r (never in the trace, never known to the
		// intruder), and the CURRENT tree key TK — whenever one is live and
		// not yet released by its own Oops — stays outside the intruder's
		// knowledge. A departed member is folded into the intruder by the
		// Oops(TK) its departure triggers, so this is precisely forward
		// secrecy: departure must not reveal any post-rotation tree key.
		id: "5.6", name: "forward secrecy of the LKH tree key TK",
		check: func(n *Node, s *model.State) string {
			if n.exposed&exposesKs != 0 {
				return fmt.Sprintf("K_s occurs in Parts(trace) at %s", s)
			}
			if s.IK.Contains(ks) {
				return fmt.Sprintf("intruder knows K_s at %s", s)
			}
			if s.TK == nil || s.Oopsed.Contains(s.TK) {
				return ""
			}
			live++
			if s.IK.Contains(s.TK) {
				return fmt.Sprintf("intruder knows the current tree key %s at %s", s.TK, s)
			}
			return ""
		},
		detail: live56,
	}, {
		// The sanity complement of 5.2: once a session is closed the Oops
		// event really does publish the old key, so the verification is not
		// vacuous — the intruder genuinely holds old session keys while the
		// properties continue to hold.
		id: "5.2o", name: "oops'd session keys become public (model sanity)",
		check: func(n *Node, s *model.State) string {
			public := true
			s.Oopsed.Each(func(k *symbolic.Field) bool {
				oopsed++
				public = s.IK.Contains(k)
				return public
			})
			if !public {
				return fmt.Sprintf("an oops'd key is unknown to the intruder at %s", s)
			}
			return ""
		},
		detail: count("%d oops observations", &oopsed),
	}, {
		// Section 5.4, first property: the list of group-management payloads
		// accepted by A (rcv_A) is a prefix of the list sent by L (snd_A) —
		// delivery is in order, with no duplicates and no forgeries.
		id: "5.4a", name: "rcv_A is a prefix of snd_A (ordered, duplicate-free)",
		check: func(n *Node, s *model.State) string {
			if len(s.RcvA) > 0 {
				nonEmpty++
			}
			if len(s.RcvA) > len(s.SndA) {
				return fmt.Sprintf("rcv=%v longer than snd=%v", s.RcvA, s.SndA)
			}
			for i, x := range s.RcvA {
				if !x.Equal(s.SndA[i]) {
					return fmt.Sprintf("rcv[%d]=%s but snd[%d]=%s", i, x, i, s.SndA[i])
				}
			}
			return ""
		},
		detail: count("%d states with non-empty rcv_A", &nonEmpty),
	}, {
		// Section 5.4, proper user authentication: L's acceptance events are
		// always preceded by matching join requests from A, so the count of
		// acceptances never exceeds the count of requests.
		id: "5.4b", name: "proper user authentication (acceptances ≤ requests)",
		check: func(n *Node, s *model.State) string {
			accepts = max(accepts, s.AccL)
			if s.AccL > s.ReqA {
				return fmt.Sprintf("AccL=%d > ReqA=%d", s.AccL, s.ReqA)
			}
			return ""
		},
		detail: count("max %d acceptances", &accepts),
	}, {
		// Section 5.4, agreement: whenever A and L are both Connected they
		// agree on the session key and on the most recent nonce produced by A.
		id: "5.4c", name: "key and nonce agreement when both Connected",
		check: func(n *Node, s *model.State) string {
			if s.Usr.Phase != model.UserConnected || s.Lead.Phase != model.LeadConnected {
				return ""
			}
			both++
			if !s.Usr.Ka.Equal(s.Lead.Ka) || !s.Usr.Na.Equal(s.Lead.N) {
				return fmt.Sprintf("usr=%s lead=%s", s.Usr, s.Lead)
			}
			return ""
		},
		detail: count("%d states with both Connected", &both),
	}, {
		// Section 5.4's last remark: whenever A holds a session key K_a, the
		// key is in use at the leader (InUse(K_a, q)).
		id: "5.4d", name: "A's session key is always in use at L",
		check: func(n *Node, s *model.State) string {
			if s.Usr.Phase != model.UserConnected {
				return ""
			}
			held++
			if !s.Lead.InUse(s.Usr.Ka) {
				return fmt.Sprintf("usr=%s lead=%s", s.Usr, s.Lead)
			}
			return ""
		},
		detail: count("%d states with A connected", &held),
	}}
}

func pass(id, name, detail string) *Obligation {
	return &Obligation{ID: id, Name: name, Holds: true, Detail: detail}
}

func fail(id, name, detail string, n *Node) *Obligation {
	return &Obligation{ID: id, Name: name, Holds: false, Detail: detail, Witness: n.Trace()}
}
