package checker

import (
	"fmt"

	"enclaves/internal/model"
)

// This file explores the legacy-protocol model (Section 2.2) and searches
// for the Section 2.3 attacks. For the baseline the expected outcome is the
// opposite of Section 5: every attack goal is REACHABLE, and the checker
// returns the shortest counterexample trace for each.

// LegacyExploration is the outcome of exhaustively exploring the legacy
// model.
type LegacyExploration struct {
	States      int
	Transitions int
	Depth       int
	// Attacks maps each Section 2.3 attack goal to the shallowest
	// reachable state exhibiting it (BFS order ⇒ minimal depth).
	Attacks map[model.LegacyViolation]*Node
}

// ExploreLegacy exhaustively explores the legacy model bounded by cfg and
// tests every attack goal on each state when the search finds it. onState,
// when non-nil, then sees the same state.
func ExploreLegacy(cfg model.LegacyConfig, onState func(n *Node, s *model.LegacyState)) *LegacyExploration {
	ex := &LegacyExploration{Attacks: make(map[model.LegacyViolation]*Node)}
	ex.States, ex.Transitions, ex.Depth = search(model.NewLegacySystem(cfg), func(n *Node, via model.LegacyStep) {
		for _, v := range model.Violations(via.Next) {
			if _, seen := ex.Attacks[v]; !seen {
				ex.Attacks[v] = n
			}
		}
		if onState != nil {
			onState(n, via.Next)
		}
	}, nil)
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
