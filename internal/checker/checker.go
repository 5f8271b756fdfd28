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

// Node is a state in the breadth-first exploration, with enough provenance
// to reconstruct a counterexample trace.
type Node struct {
	State  *model.State
	Parent *Node
	Via    model.Step // the step that produced this node (zero for the root)
	Depth  int
	// exposed is the set of protected keys in Parts(trace) of State.
	exposed exposure
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
		rev = append(rev, cur.Via.String())
	}
	out := make([]string, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// Edge is one explored transition, retained for diagram checking.
type Edge struct {
	From *Node
	Step model.Step
	To   *Node
}

// Exploration is the result of an exhaustive bounded search of the improved
// protocol model.
type Exploration struct {
	System *model.System
	Nodes  []*Node
	Edges  []Edge // nil when explored with Options.Edges == false
	Depth  int    // maximum BFS depth reached
	// Transitions counts every explored transition, whether or not the edge
	// list is retained; with Options.Edges it equals len(Edges).
	Transitions int
	// HonestSends and RegViolation are the streaming Section 5.1 regularity
	// statistics, computed as transitions are generated so the obligation
	// does not need the (optionally discarded) edge list: the number of
	// honest emissions checked, and the first edge whose honest emission
	// contains P_a (nil when regularity holds).
	HonestSends  int
	RegViolation *Edge
}

// Options tunes an exploration.
type Options struct {
	// Edges retains the full transition list on Exploration.Edges. Only the
	// Figure 4 diagram check needs it; memory-bound runs (LKH, deep bounds)
	// should leave it off.
	Edges bool
}

// Explore performs an exhaustive breadth-first search of the improved model
// bounded by cfg, retaining every node and edge.
func Explore(cfg model.Config) *Exploration {
	return ExploreOpts(cfg, Options{Edges: true})
}

// ExploreOpts performs the same exhaustive breadth-first search as Explore
// with explicit Options. Nodes are discovered level by level, each level in
// the order of its parents and each parent's successors, so node order,
// depths and counterexample traces are deterministic.
func ExploreOpts(cfg model.Config, opts Options) *Exploration {
	sys := model.NewSystem(cfg)
	root := &Node{State: sys.Initial()}
	seen := map[string]*Node{root.State.Key(): root}
	ex := &Exploration{System: sys, Nodes: []*Node{root}}

	frontier := []*Node{root}
	for len(frontier) > 0 {
		var next []*Node
		for _, n := range frontier {
			for _, step := range sys.Successors(n.State) {
				ex.Transitions++
				var emitted exposure
				if step.Emitted != nil {
					emitted = exposureOf(sys, step.Emitted.Content)
				}
				key := step.Next.Key()
				to, ok := seen[key]
				if !ok {
					to = &Node{State: step.Next, Parent: n, Via: step, Depth: n.Depth + 1, exposed: n.exposed | emitted}
					seen[key] = to
					ex.Nodes = append(ex.Nodes, to)
					next = append(next, to)
					ex.Depth = max(ex.Depth, to.Depth)
				}
				if step.Actor != model.AgentIntruder && step.Emitted != nil {
					ex.HonestSends++
					if ex.RegViolation == nil && emitted&exposesPa != 0 {
						ex.RegViolation = &Edge{From: n, Step: step, To: to}
					}
				}
				if opts.Edges {
					ex.Edges = append(ex.Edges, Edge{From: n, Step: step, To: to})
				}
			}
		}
		frontier = next
	}
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
