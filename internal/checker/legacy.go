package checker

import (
	"fmt"

	"enclaves/internal/model"
)

// This file explores the legacy-protocol model (Section 2.2) and searches
// for the Section 2.3 attacks. For the baseline the expected outcome is the
// opposite of Section 5: every attack goal is REACHABLE, and the checker
// returns the shortest counterexample trace for each.

// LegacyNode is a node of the legacy exploration.
type LegacyNode struct {
	State  *model.LegacyState
	Parent *LegacyNode
	Via    model.LegacyStep
	Depth  int
}

// Trace reconstructs the action sequence from the initial state to n.
func (n *LegacyNode) Trace() []string {
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

// LegacyExploration is the result of exhaustively exploring the legacy
// model.
type LegacyExploration struct {
	System *model.LegacySystem
	Nodes  []*LegacyNode
	Depth  int
	// Attacks maps each Section 2.3 attack goal to the shallowest
	// reachable state exhibiting it (BFS order ⇒ minimal depth).
	Attacks map[model.LegacyViolation]*LegacyNode
}

// ExploreLegacy exhaustively explores the legacy model bounded by cfg.
func ExploreLegacy(cfg model.LegacyConfig) *LegacyExploration {
	sys := model.NewLegacySystem(cfg)
	root := &LegacyNode{State: sys.Initial()}
	visited := map[string]bool{root.State.Key(): true}
	ex := &LegacyExploration{
		System:  sys,
		Nodes:   []*LegacyNode{root},
		Attacks: make(map[model.LegacyViolation]*LegacyNode),
	}

	note := func(n *LegacyNode) {
		for _, v := range model.Violations(n.State) {
			if _, seen := ex.Attacks[v]; !seen {
				ex.Attacks[v] = n
			}
		}
	}
	note(root)

	frontier := []*LegacyNode{root}
	for len(frontier) > 0 {
		var next []*LegacyNode
		for _, n := range frontier {
			for _, step := range sys.Successors(n.State) {
				key := step.Next.Key()
				if visited[key] {
					continue
				}
				visited[key] = true
				to := &LegacyNode{State: step.Next, Parent: n, Via: step, Depth: n.Depth + 1}
				ex.Nodes = append(ex.Nodes, to)
				next = append(next, to)
				if to.Depth > ex.Depth {
					ex.Depth = to.Depth
				}
				note(to)
			}
		}
		frontier = next
	}
	return ex
}

// legacyAttackGoals names the four Section 2.3 attacks in report order.
var legacyAttackGoals = []struct {
	id   string
	v    model.LegacyViolation
	name string
}{
	{"A1", model.ViolationForgedDenial, "forged connection_denied denies service to A"},
	{"A2", model.ViolationMembership, "insider forges mem_removed: A's view drops live member B"},
	{"A3", model.ViolationKeyRollback, "replayed new_key rolls A back to a compromised group key"},
	{"A4", model.ViolationForcedClose, "forged plaintext req_close ends A's session"},
}

// LegacyObligations reports, for each Section 2.3 attack, whether the
// exploration found it (Holds == true means "attack found", matching the
// paper's claim that the legacy protocol is vulnerable).
func LegacyObligations(ex *LegacyExploration) []Obligation {
	var out []Obligation
	for _, g := range legacyAttackGoals {
		n, found := ex.Attacks[g.v]
		o := Obligation{ID: g.id, Name: g.name, Holds: found}
		if found {
			o.Detail = fmt.Sprintf("attack trace of %d steps", n.Depth)
			o.Witness = n.Trace()
		} else {
			o.Detail = "attack not reachable within bounds — disagrees with the paper"
		}
		out = append(out, o)
	}
	return out
}
