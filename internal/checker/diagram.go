package checker

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"enclaves/internal/model"
	"enclaves/internal/symbolic"
)

// This file reconstructs the verification diagram of Figure 4 (Section 5.3)
// and checks its validity mechanically. Each box is a predicate Q_i over
// global states relating usr_A(q), lead_A(q) and trace(q); the diagram is a
// valid abstraction if
//
//   - the initial state satisfies Q1,
//   - every reachable state satisfies exactly one Q_i (the boxes partition
//     the reachable set), and
//   - every transition out of a Q_i state lands in Q_i itself or in one of
//     its declared successor boxes.
//
// The paper prints only a subset of the predicates (Q1, Q2, Q3, Q4, Q12);
// the full diagram lives in its technical-report companion [4]. We
// re-derive the complete box set systematically, exactly as Section 5.3
// prescribes ("examining the successive transitions A or L can execute"),
// and carry the paper's published trace clauses on the corresponding boxes.
// Box numbering therefore matches the paper where the paper shows a
// predicate, and fills the gaps deterministically elsewhere.

// Box is one node of the verification diagram.
type Box struct {
	ID   string
	Desc string
	// Pred reports whether the state satisfies the box predicate,
	// including its trace clauses.
	Pred func(d *Diagram, s *model.State) bool
	// Succ lists the IDs of the declared successor boxes; every box is
	// implicitly its own successor.
	Succ []string
}

// Diagram is the reconstructed Figure 4.
type Diagram struct {
	Boxes []Box
	pa    *symbolic.Field
	a     *symbolic.Field
	l     *symbolic.Field
}

// NewDiagram returns the verification diagram for the improved protocol.
func NewDiagram() *Diagram {
	d := &Diagram{
		pa: symbolic.LongTermKey(model.AgentUser),
		a:  symbolic.Agent(model.AgentUser),
		l:  symbolic.Agent(model.AgentLeader),
	}
	d.Boxes = []Box{
		{
			ID:   "Q1",
			Desc: "usr=NotConnected, lead=NotConnected",
			Pred: func(d *Diagram, s *model.State) bool {
				return s.Usr.Phase == model.UserNotConnected && s.Lead.Phase == model.LeadNotConnected
			},
			Succ: []string{"Q2", "Q9"},
		},
		{
			ID:   "Q2",
			Desc: "usr=WaitingForKey(Na), lead=NotConnected; no key-distribution for Na in the trace",
			Pred: func(d *Diagram, s *model.State) bool {
				return s.Usr.Phase == model.UserWaitingForKey && s.Lead.Phase == model.LeadNotConnected &&
					!d.keyDistForNonceExists(s, s.Usr.Na)
			},
			Succ: []string{"Q3", "Q10"},
		},
		{
			ID: "Q3",
			Desc: "usr=WaitingForKey(Na), lead=WaitingForKeyAck(Nl,Ka) linked; the only key-distribution " +
				"for Na carries (Nl,Ka); no key-ack for (Nl,Ka); no close for Ka",
			Pred: func(d *Diagram, s *model.State) bool {
				if s.Usr.Phase != model.UserWaitingForKey || s.Lead.Phase != model.LeadWaitingForKeyAck {
					return false
				}
				if !d.linked(s) {
					return false
				}
				// Paper clause 3: every key-distribution for Na carries (Nl, Ka).
				for _, kd := range d.keyDistsForNonce(s, s.Usr.Na) {
					comps := kd.Body().Components()
					if !comps[3].Equal(s.Lead.N) || !comps[4].Equal(s.Lead.Ka) {
						return false
					}
				}
				// Paper clauses 4-5: no key acknowledgment, no close yet.
				return !d.ackForExists(s, s.Lead.N, s.Lead.Ka) && !d.closeExists(s, s.Lead.Ka)
			},
			Succ: []string{"Q4"},
		},
		{
			ID: "Q4",
			Desc: "usr=Connected(Na',Ka), lead=WaitingForKeyAck(Nl,Ka); every ack for (Nl,Ka) carries Na'; " +
				"no AdminMsg for Na'; no close for Ka",
			Pred: func(d *Diagram, s *model.State) bool {
				if s.Usr.Phase != model.UserConnected || s.Lead.Phase != model.LeadWaitingForKeyAck {
					return false
				}
				if !s.Usr.Ka.Equal(s.Lead.Ka) {
					return false
				}
				for _, n := range d.ackNoncesFor(s, s.Lead.N, s.Lead.Ka) {
					if !n.Equal(s.Usr.Na) {
						return false
					}
				}
				return !d.adminForNonceExists(s, s.Usr.Na, s.Usr.Ka) && !d.closeExists(s, s.Usr.Ka)
			},
			Succ: []string{"Q5", "Q9"},
		},
		{
			ID:   "Q5",
			Desc: "usr=Connected(N,Ka), lead=Connected(N,Ka): key and nonce agreement; no pending AdminMsg; no close",
			Pred: func(d *Diagram, s *model.State) bool {
				if s.Usr.Phase != model.UserConnected || s.Lead.Phase != model.LeadConnected {
					return false
				}
				return s.Usr.Ka.Equal(s.Lead.Ka) && s.Usr.Na.Equal(s.Lead.N) &&
					!d.adminForNonceExists(s, s.Usr.Na, s.Usr.Ka) && !d.closeExists(s, s.Usr.Ka)
			},
			Succ: []string{"Q6", "Q7"},
		},
		{
			ID: "Q6",
			Desc: "usr=Connected(N,Ka), lead=WaitingForAck(Nl,Ka): the AdminMsg for Nl is outstanding " +
				"(carries N) or already acknowledged with N; no close for Ka",
			Pred: func(d *Diagram, s *model.State) bool {
				if s.Usr.Phase != model.UserConnected || s.Lead.Phase != model.LeadWaitingForAck {
					return false
				}
				if !s.Usr.Ka.Equal(s.Lead.Ka) || d.closeExists(s, s.Usr.Ka) {
					return false
				}
				outstanding := d.adminCarryingLeaderNonce(s, s.Lead.N, s.Lead.Ka, s.Usr.Na)
				acked := false
				for _, n := range d.ackNoncesFor(s, s.Lead.N, s.Lead.Ka) {
					if n.Equal(s.Usr.Na) {
						acked = true
					}
				}
				return outstanding != acked // exactly one of the two flavours
			},
			Succ: []string{"Q5", "Q8"},
		},
		{
			ID:   "Q7",
			Desc: "usr=NotConnected, lead=Connected(N,Ka): A has left; the close for Ka is in the trace",
			Pred: func(d *Diagram, s *model.State) bool {
				return s.Usr.Phase == model.UserNotConnected && s.Lead.Phase == model.LeadConnected &&
					d.closeExists(s, s.Lead.Ka)
			},
			Succ: []string{"Q1", "Q8", "Q11"},
		},
		{
			ID:   "Q8",
			Desc: "usr=NotConnected, lead=WaitingForAck(Nl,Ka): A has left with an AdminMsg in flight",
			Pred: func(d *Diagram, s *model.State) bool {
				return s.Usr.Phase == model.UserNotConnected && s.Lead.Phase == model.LeadWaitingForAck &&
					d.closeExists(s, s.Lead.Ka)
			},
			Succ: []string{"Q1", "Q7", "Q12"},
		},
		{
			ID: "Q9",
			Desc: "usr=NotConnected, lead=WaitingForKeyAck(Nl,Ka): A is gone — either a stale replayed " +
				"AuthInitReq re-engaged L (paper's Q12: no ack for (Nl,Ka) exists) or A completed and left",
			Pred: func(d *Diagram, s *model.State) bool {
				return s.Usr.Phase == model.UserNotConnected && s.Lead.Phase == model.LeadWaitingForKeyAck
			},
			Succ: []string{"Q1", "Q7", "Q10"},
		},
		{
			ID: "Q10",
			Desc: "usr=WaitingForKey(Na), lead=WaitingForKeyAck on a stale session; no key-distribution " +
				"for Na in the trace",
			Pred: func(d *Diagram, s *model.State) bool {
				return s.Usr.Phase == model.UserWaitingForKey && s.Lead.Phase == model.LeadWaitingForKeyAck &&
					!d.linked(s) && !d.keyDistForNonceExists(s, s.Usr.Na)
			},
			Succ: []string{"Q2", "Q11"},
		},
		{
			ID:   "Q11",
			Desc: "usr=WaitingForKey(Na), lead=Connected on a stale session; no key-distribution for Na",
			Pred: func(d *Diagram, s *model.State) bool {
				return s.Usr.Phase == model.UserWaitingForKey && s.Lead.Phase == model.LeadConnected &&
					!d.keyDistForNonceExists(s, s.Usr.Na)
			},
			Succ: []string{"Q2", "Q12"},
		},
		{
			ID:   "Q12",
			Desc: "usr=WaitingForKey(Na), lead=WaitingForAck on a stale session; no key-distribution for Na",
			Pred: func(d *Diagram, s *model.State) bool {
				return s.Usr.Phase == model.UserWaitingForKey && s.Lead.Phase == model.LeadWaitingForAck &&
					!d.keyDistForNonceExists(s, s.Usr.Na)
			},
			Succ: []string{"Q2", "Q11"},
		},
	}
	return d
}

// linked reports whether the leader's current session was created by A's
// current join request: the (unique) key distribution carrying lead.Ka names
// usr.Na.
func (d *Diagram) linked(s *model.State) bool {
	if s.Usr.Na == nil || s.Lead.Ka == nil {
		return false
	}
	kd := d.keyDistForKey(s, s.Lead.Ka)
	return kd != nil && kd.Body().Components()[2].Equal(s.Usr.Na)
}

// keyDistsForNonce returns the trace contents {L,A,na,N,K}_Pa.
func (d *Diagram) keyDistsForNonce(s *model.State, na *symbolic.Field) []*symbolic.Field {
	var out []*symbolic.Field
	for _, m := range s.Messages() {
		c := m.Content
		if c.Kind() != symbolic.KindEnc || !c.EncKey().Equal(d.pa) {
			continue
		}
		comps := c.Body().Components()
		if len(comps) == 5 && comps[0].Equal(d.l) && comps[1].Equal(d.a) && comps[2].Equal(na) {
			out = append(out, c)
		}
	}
	return out
}

func (d *Diagram) keyDistForNonceExists(s *model.State, na *symbolic.Field) bool {
	return len(d.keyDistsForNonce(s, na)) > 0
}

// keyDistForKey returns the unique trace content {L,A,N,N',ka}_Pa, or nil.
func (d *Diagram) keyDistForKey(s *model.State, ka *symbolic.Field) *symbolic.Field {
	for _, m := range s.Messages() {
		c := m.Content
		if c.Kind() != symbolic.KindEnc || !c.EncKey().Equal(d.pa) {
			continue
		}
		comps := c.Body().Components()
		if len(comps) == 5 && comps[0].Equal(d.l) && comps[1].Equal(d.a) && comps[4].Equal(ka) {
			return c
		}
	}
	return nil
}

// ackNoncesFor returns every N such that {A,L,nl,N}_ka is in the trace
// (covers both AuthAckKey and Ack, which share the shape).
func (d *Diagram) ackNoncesFor(s *model.State, nl, ka *symbolic.Field) []*symbolic.Field {
	var out []*symbolic.Field
	for _, m := range s.Messages() {
		c := m.Content
		if c.Kind() != symbolic.KindEnc || !c.EncKey().Equal(ka) {
			continue
		}
		comps := c.Body().Components()
		if len(comps) == 4 && comps[0].Equal(d.a) && comps[1].Equal(d.l) && comps[2].Equal(nl) {
			out = append(out, comps[3])
		}
	}
	return out
}

func (d *Diagram) ackForExists(s *model.State, nl, ka *symbolic.Field) bool {
	return len(d.ackNoncesFor(s, nl, ka)) > 0
}

// adminForNonceExists reports whether an AdminMsg content {L,A,na,N,X}_ka is
// in the trace.
func (d *Diagram) adminForNonceExists(s *model.State, na, ka *symbolic.Field) bool {
	for _, m := range s.Messages() {
		c := m.Content
		if c.Kind() != symbolic.KindEnc || !c.EncKey().Equal(ka) {
			continue
		}
		comps := c.Body().Components()
		if len(comps) == 5 && comps[0].Equal(d.l) && comps[1].Equal(d.a) && comps[2].Equal(na) {
			return true
		}
	}
	return false
}

// adminCarryingLeaderNonce reports whether the AdminMsg {L,A,na,nl,X}_ka is
// in the trace — the outstanding message of box Q6.
func (d *Diagram) adminCarryingLeaderNonce(s *model.State, nl, ka, na *symbolic.Field) bool {
	for _, m := range s.Messages() {
		c := m.Content
		if c.Kind() != symbolic.KindEnc || !c.EncKey().Equal(ka) {
			continue
		}
		comps := c.Body().Components()
		if len(comps) == 5 && comps[0].Equal(d.l) && comps[1].Equal(d.a) &&
			comps[2].Equal(na) && comps[3].Equal(nl) {
			return true
		}
	}
	return false
}

// closeExists reports whether {A,L}_ka is in the trace.
func (d *Diagram) closeExists(s *model.State, ka *symbolic.Field) bool {
	c := symbolic.Enc(symbolic.Pair(d.a, d.l), ka)
	for _, m := range s.Messages() {
		if m.Content.Equal(c) {
			return true
		}
	}
	return false
}

// Classify returns the IDs of every box whose predicate s satisfies.
func (d *Diagram) Classify(s *model.State) []string {
	var out []string
	for _, b := range d.Boxes {
		if b.Pred(d, s) {
			out = append(out, b.ID)
		}
	}
	return out
}

// succeeds reports whether Figure 4 declares the transition from box from
// to box to: a self-loop or an edge to one of from's successors.
func (d *Diagram) succeeds(from, to string) bool {
	if from == to {
		return true
	}
	for _, b := range d.Boxes {
		if b.ID == from {
			return slices.Contains(b.Succ, to)
		}
	}
	return false
}

// DiagramResult carries the outcome of checking the diagram against an
// exploration, including the observed adjacency with edge counts.
type DiagramResult struct {
	Obligations []Obligation
	// BoxCounts maps box ID to the number of reachable states it covers.
	BoxCounts map[string]int
	// EdgeCounts maps "Qi -> Qj" to the number of observed transitions.
	EdgeCounts map[string]int
}

// diagramCheck verifies during the search that the diagram is a valid
// abstraction of the explored system: the initial state is in Q1, every
// state is in exactly one box when it is found, and every transition is a
// self-loop or a declared edge when it is generated. The first state
// outside the partition decides F4/total and voids the edge checks, which
// need every state classified; the first undeclared edge decides F4/edge.
type diagramCheck struct {
	d          *Diagram
	init       *Obligation
	partition  *Obligation // first state in no box or in several
	undeclared *Obligation // first transition along no declared edge
	boxCounts  map[string]int
	edgeCounts map[string]int
	// outOf counts the transitions leaving each box.
	outOf map[string]int
}

// The names of the diagram's global obligations.
const (
	initName  = "initial state satisfies Q1"
	totalName = "every reachable state satisfies exactly one box"
	edgeName  = "every transition follows a declared diagram edge"
)

func newDiagramCheck() *diagramCheck {
	return &diagramCheck{
		d:          NewDiagram(),
		boxCounts:  make(map[string]int),
		edgeCounts: make(map[string]int),
		outOf:      make(map[string]int),
	}
}

// visit classifies s, just found at n, and records its box on n. The first
// state visited is the initial one.
func (c *diagramCheck) visit(n *Node, s *model.State) {
	if c.partition != nil {
		return
	}
	boxes := c.d.Classify(s)
	if c.init == nil {
		c.init = pass("F4/init", initName, "")
		if len(boxes) != 1 || boxes[0] != "Q1" {
			c.init = fail("F4/init", initName, fmt.Sprintf("classified as %v", boxes), n)
		}
	}
	switch len(boxes) {
	case 1:
		n.box = boxes[0]
		c.boxCounts[n.box]++
	case 0:
		c.partition = fail("F4/total", totalName, fmt.Sprintf("no box covers %s", s), n)
	default:
		c.partition = fail("F4/total", totalName, fmt.Sprintf("boxes %v overlap on %s", boxes, s), n)
	}
}

// edge checks the transition st from `from` to `to`, both classified.
func (c *diagramCheck) edge(from *Node, st model.Step, to *Node) {
	if c.partition != nil || c.undeclared != nil {
		return
	}
	c.edgeCounts[from.box+" -> "+to.box]++
	c.outOf[from.box]++
	if !c.d.succeeds(from.box, to.box) {
		c.undeclared = fail("F4/edge", edgeName, fmt.Sprintf("undeclared edge %s -> %s via %s", from.box, to.box, st), to)
	}
}

// result reports the diagram obligations over states and transitions. Each
// per-box obligation of the paper's style, Q_i ∧ transition ⇒ Q_i ∨
// successors, is F4/edge restricted to the transitions out of Q_i, so the
// per-box obligations are reported, with their transition counts, when
// F4/edge holds.
func (c *diagramCheck) result(states, transitions int) *DiagramResult {
	res := &DiagramResult{Obligations: []Obligation{*c.init}, BoxCounts: c.boxCounts, EdgeCounts: c.edgeCounts}
	if c.partition != nil {
		res.EdgeCounts = map[string]int{}
		res.Obligations = append(res.Obligations, *c.partition)
		return res
	}
	res.Obligations = append(res.Obligations, *pass("F4/total", totalName, fmt.Sprintf("%d states over %d boxes", states, len(c.boxCounts))))
	if c.undeclared != nil {
		res.Obligations = append(res.Obligations, *c.undeclared)
		return res
	}
	res.Obligations = append(res.Obligations, *pass("F4/edge", edgeName, fmt.Sprintf("%d transitions over %d distinct edges", transitions, len(c.edgeCounts))))
	for _, b := range c.d.Boxes {
		res.Obligations = append(res.Obligations,
			*pass("F4/"+b.ID, fmt.Sprintf("%s ∧ transition ⇒ %s ∨ {%s}", b.ID, b.ID, strings.Join(b.Succ, ", ")),
				fmt.Sprintf("%d transitions", c.outOf[b.ID])))
	}
	return res
}

// AdjacencyTable renders the observed diagram edges with counts, in
// deterministic order, for the cmd/verify report.
func (r *DiagramResult) AdjacencyTable() string {
	keys := make([]string, 0, len(r.EdgeCounts))
	for k := range r.EdgeCounts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "  %-14s %6d transitions\n", k, r.EdgeCounts[k])
	}
	return b.String()
}

// DOT renders the verification diagram in Graphviz format, annotating each
// box with its reachable-state count and each edge with its observed
// transition count. Feed it to `dot -Tsvg` to regenerate Figure 4 visually.
func (r *DiagramResult) DOT() string {
	d := NewDiagram()
	var b strings.Builder
	b.WriteString("digraph figure4 {\n")
	b.WriteString("  rankdir=TB;\n")
	b.WriteString("  node [shape=box, fontname=\"monospace\"];\n")
	for _, box := range d.Boxes {
		fmt.Fprintf(&b, "  %s [label=\"%s\\n%d states\"];\n", box.ID, box.ID, r.BoxCounts[box.ID])
	}
	keys := make([]string, 0, len(r.EdgeCounts))
	for k := range r.EdgeCounts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		from, to, ok := strings.Cut(k, " -> ")
		if !ok || from == to {
			continue // self-loops are implicit in the diagram
		}
		fmt.Fprintf(&b, "  %s -> %s [label=\"%d\"];\n", from, to, r.EdgeCounts[k])
	}
	b.WriteString("}\n")
	return b.String()
}
