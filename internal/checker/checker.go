// Package checker explores the reachable state space of the protocol models
// in package model and mechanically discharges the verification obligations
// of Section 5 of the paper:
//
//   - secrecy of the long-term key P_a (Section 5.1, regularity),
//   - secrecy of in-use session keys via ideals/coideals (Section 5.2),
//   - validity of the verification diagram (Section 5.3, Figure 4),
//   - the derived properties of Section 5.4: in-order duplicate-free
//     delivery of group-management messages, proper user authentication,
//     and key/nonce agreement.
//
// For the legacy protocol model it searches for the Section 2.3 attacks and
// returns the counterexample traces.
//
// The exploration is exhaustive within the bounds of a model.Config; it is
// the executable counterpart of the paper's PVS proofs (see DESIGN.md for
// the substitution argument).
package checker

import (
	"fmt"
	"strings"

	"enclaves/internal/model"
	"enclaves/internal/symbolic"
)

// Node is one explored state's provenance: enough to print the trace that
// reaches it. It holds no model state: every obligation is checked when its
// state or transition is found, so a search keeps the states of only two
// BFS levels alive, and a Node keeps what a counterexample needs.
type Node struct {
	Parent *Node
	Via    string // the step that produced this node ("" for the root)
	Depth  int
	// exposed is the set of protected keys in Parts(trace) of the state.
	exposed exposure
	// box is the state's Figure 4 box ("" when the diagram does not apply).
	box string
}

// exposure is a set of the protected keys P_a, K_r and K_s: the keys that
// 5.1, 5.5 and 5.6 require to stay out of Parts(trace).
type exposure uint8

const (
	exposesPa exposure = 1 << iota
	exposesKr
	exposesKs
)

// exposureOf returns the protected keys in Parts({m}). The trace only grows
// along an edge, so a node's exposure is its parent's plus that of the
// message its step emits. (The one step that records a second message,
// a departure's Oops(TK), adds an atomic session key, which exposes none.)
func exposureOf(sys *model.System, m *symbolic.Field) exposure {
	parts := symbolic.Parts(symbolic.NewSet(m))
	var e exposure
	if parts.Contains(sys.LongTermKey()) {
		e |= exposesPa
	}
	if parts.Contains(sys.ReplKey()) {
		e |= exposesKr
	}
	if parts.Contains(sys.SubtreeKey()) {
		e |= exposesKs
	}
	return e
}

// Trace reconstructs the action sequence from the initial state to n.
func (n *Node) Trace() []string {
	var rev []string
	for cur := n; cur.Parent != nil; cur = cur.Parent {
		rev = append(rev, cur.Via)
	}
	out := make([]string, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// state is what the explorer needs of a model state: its canonical key.
type state interface{ Key() string }

// system is what the explorer needs of a model: the improved protocol's
// model.System and the legacy model.LegacySystem both qualify.
type system[S state] interface {
	Initial() S
	Successors(S) []model.Transition[S]
}

// search explores sys breadth-first, level by level: each level in the
// order of its parents and each parent's successors, so node order, depths
// and counterexample traces are deterministic. The seen-set is keyed by the
// full canonical Key of each state, so the search is exact. visit sees every
// distinct state once, with the transition that first reached it (the
// initial state comes with a transition that sets only Next); edge, when
// non-nil, then sees every transition, that one included. Only the states of
// the level being expanded and of the next one are alive.
func search[S state](sys system[S], visit func(*Node, model.Transition[S]),
	edge func(from *Node, s S, st model.Transition[S], to *Node)) (states, transitions, depth int) {
	type item struct {
		n *Node
		s S
	}
	s0 := sys.Initial()
	root := &Node{}
	seen := map[string]*Node{s0.Key(): root}
	visit(root, model.Transition[S]{Next: s0})
	for frontier := []item{{root, s0}}; len(frontier) > 0; {
		var next []item
		for i, it := range frontier {
			frontier[i] = item{} // the expanded state is garbage from here on
			for _, st := range sys.Successors(it.s) {
				transitions++
				key := st.Next.Key()
				to, ok := seen[key]
				if !ok {
					to = &Node{Parent: it.n, Via: st.String(), Depth: it.n.Depth + 1}
					seen[key] = to
					next = append(next, item{to, st.Next})
					depth = max(depth, to.Depth)
					visit(to, st)
				}
				if edge != nil {
					edge(it.n, it.s, st, to)
				}
			}
		}
		frontier = next
	}
	return len(seen), transitions, depth
}

// Exploration is the outcome of an exhaustive bounded search of the
// improved protocol model: its size and every obligation's verdict.
type Exploration struct {
	States      int
	Transitions int
	Depth       int // maximum BFS depth reached
	// Obligations are the verdicts of Sections 5.1, 5.2 and 5.4 and of the
	// 5.5 and 5.6 extensions, in report order.
	Obligations []Obligation
	// Diagram is the Figure 4 check, nil when the failover or LKH extension
	// is on: their states intentionally live outside the diagram's boxes.
	Diagram *DiagramResult
}

// Explore exhaustively searches the improved model bounded by cfg and
// discharges every obligation during the search: the per-state invariants
// and the Figure 4 classification when a state is found, regularity and the
// diagram's edge obligations when a transition is generated. onState and
// onEdge, when non-nil, then see the same state or transition; s is the
// state the transition leaves and st.Next the one it reaches.
func Explore(cfg model.Config, onState func(n *Node, s *model.State),
	onEdge func(from *Node, s *model.State, st model.Step, to *Node)) *Exploration {
	c := newChecks(model.NewSystem(cfg))
	ex := &Exploration{}
	ex.States, ex.Transitions, ex.Depth = search(c.sys,
		func(n *Node, via model.Step) {
			c.visit(n, via)
			if onState != nil {
				onState(n, via.Next)
			}
		},
		func(from *Node, s *model.State, st model.Step, to *Node) {
			c.edge(from, st, to)
			if onEdge != nil {
				onEdge(from, s, st, to)
			}
		})
	ex.Obligations, ex.Diagram = c.verdicts()
	return ex
}

// Obligation is one named proof obligation with its verdict.
type Obligation struct {
	ID      string // e.g. "5.1", "5.4a", "F4/Q3->Q4"
	Name    string
	Holds   bool
	Detail  string   // statistics or failure description
	Witness []string // counterexample trace if the obligation fails
}

func (o Obligation) String() string {
	verdict := "PROVED"
	if !o.Holds {
		verdict = "VIOLATED"
	}
	s := fmt.Sprintf("[%s] %-55s %s", o.ID, o.Name, verdict)
	if o.Detail != "" {
		s += " (" + o.Detail + ")"
	}
	if len(o.Witness) > 0 {
		s += "\n    counterexample:\n      " + strings.Join(o.Witness, "\n      ")
	}
	return s
}
