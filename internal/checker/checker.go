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
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

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
	// statistics, computed by the expansion workers so the obligation does
	// not need the (optionally discarded) edge list: the number of honest
	// emissions checked, and the deterministically-first edge whose honest
	// emission contains P_a (nil when regularity holds).
	HonestSends  int
	RegViolation *Edge
}

// Options tunes an exploration. The zero value means sequential search with
// the edge list retained.
type Options struct {
	// Workers bounds the expansion worker pool; 0 or 1 explores on the
	// calling goroutine. Results are bit-identical for every worker count.
	Workers int
	// Edges retains the full transition list on Exploration.Edges. Only the
	// Figure 4 diagram check needs it; memory-bound runs (LKH, deep bounds)
	// should leave it off.
	Edges bool
}

// DefaultOptions is what Explore uses: all cores, edges retained.
func DefaultOptions() Options {
	return Options{Workers: runtime.GOMAXPROCS(0), Edges: true}
}

// Explore performs an exhaustive breadth-first search of the improved model
// bounded by cfg, retaining every node and edge, using every core.
func Explore(cfg model.Config) *Exploration {
	return ExploreOpts(cfg, DefaultOptions())
}

// succ is one generated transition, recorded by a worker in generation
// order for the deterministic level-barrier merge.
type succ struct {
	from *Node
	step model.Step
	node *Node // claimed target; State==nil iff first claimed this level
}

// chunkResult is the output of expanding one frontier chunk.
type chunkResult struct {
	succs       []succ
	honestSends int
	reg         *Edge // first regularity violation within the chunk, if any
}

// frontierChunk is the work-stealing granularity: big enough to amortize
// the atomic claim, small enough to balance skewed successor counts.
const frontierChunk = 32

// ExploreOpts performs the same exhaustive breadth-first search as Explore
// with explicit Options.
//
// The search is level-synchronous: each BFS level is split into fixed-size
// chunks that workers claim with an atomic counter (work stealing — a
// worker stuck on a successor-heavy chunk simply claims fewer chunks).
// Workers expand states and claim successor keys in the shared visitedSet,
// where the first claim installs a placeholder node with State == nil; the
// merge at the level barrier then walks the chunks IN ORDER and finalizes
// each placeholder from the first edge that reached it. Node identity,
// node/edge order, depths and counterexample traces are therefore exactly
// those of the sequential left-to-right search, for every worker count.
func ExploreOpts(cfg model.Config, opts Options) *Exploration {
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	sys := model.NewSystem(cfg)
	pa := sys.LongTermKey()
	root := &Node{State: sys.Initial()}
	visited := new(visitedSet)
	rootNode, _ := visited.claim(root.State.Key())
	rootNode.State = root.State
	root = rootNode
	ex := &Exploration{System: sys, Nodes: []*Node{root}}

	frontier := []*Node{root}
	for len(frontier) > 0 {
		nChunks := (len(frontier) + frontierChunk - 1) / frontierChunk
		results := make([]chunkResult, nChunks)

		expand := func(ci int) {
			lo := ci * frontierChunk
			hi := min(lo+frontierChunk, len(frontier))
			res := &results[ci]
			for _, n := range frontier[lo:hi] {
				for _, step := range sys.Successors(n.State) {
					to, _ := visited.claim(step.Next.Key())
					res.succs = append(res.succs, succ{from: n, step: step, node: to})
					if step.Actor != model.AgentIntruder && step.Emitted != nil {
						res.honestSends++
						if res.reg == nil &&
							symbolic.Parts(symbolic.NewSet(step.Emitted.Content)).Contains(pa) {
							res.reg = &Edge{From: n, Step: step, To: to}
						}
					}
				}
			}
		}

		if workers == 1 || nChunks == 1 {
			for ci := 0; ci < nChunks; ci++ {
				expand(ci)
			}
		} else {
			var nextChunk atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < min(workers, nChunks); w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						ci := int(nextChunk.Add(1)) - 1
						if ci >= nChunks {
							return
						}
						expand(ci)
					}
				}()
			}
			wg.Wait()
		}

		// Deterministic merge: chunk order is frontier order, so the node
		// that finalizes each placeholder — and the retained edge order —
		// match the sequential search exactly.
		var next []*Node
		for ci := range results {
			res := &results[ci]
			ex.HonestSends += res.honestSends
			if res.reg != nil && ex.RegViolation == nil {
				ex.RegViolation = res.reg
			}
			ex.Transitions += len(res.succs)
			for _, t := range res.succs {
				if t.node.State == nil {
					t.node.State = t.step.Next
					t.node.Parent = t.from
					t.node.Via = t.step
					t.node.Depth = t.from.Depth + 1
					ex.Nodes = append(ex.Nodes, t.node)
					next = append(next, t.node)
					if t.node.Depth > ex.Depth {
						ex.Depth = t.node.Depth
					}
				}
				if opts.Edges {
					ex.Edges = append(ex.Edges, Edge{From: t.from, Step: t.step, To: t.node})
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
