// Command attackdemo pairs each Section 2.3 attack on the original Enclaves
// protocol with the same attack against the improved one. For the legacy
// protocol, which exists only as a model, it prints the model checker's
// shortest counterexample trace; for the improved protocol it runs the
// attack live against the real leader over an adversarial in-memory network
// and prints the rejection.
//
// Usage:
//
//	attackdemo
//
// Exit status is nonzero if any legacy attack is not found or any live
// attack on the improved protocol succeeds.
package main

import (
	"fmt"
	"io"
	"os"

	"enclaves/internal/attack"
	"enclaves/internal/checker"
	"enclaves/internal/model"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "attackdemo:", err)
		os.Exit(1)
	}
}

func run(out io.Writer) error {
	fmt.Fprintln(out, "Enclaves attack demonstration (Section 2.3 of DSN'01 paper)")
	fmt.Fprintln(out, "legacy:   the model checker's shortest attack on the Section 2.2 model")
	fmt.Fprintln(out, "improved: the same attack run live against the real leader")
	fmt.Fprintln(out)

	legacy := make(map[string]checker.Obligation)
	disagreements := 0
	for _, o := range checker.LegacyObligations(checker.ExploreLegacy(model.DefaultLegacyConfig(), nil)) {
		legacy[o.ID] = o
		if !o.Holds {
			disagreements++
		}
	}
	outcomes, err := attack.RunAll(attack.Memory)
	if err != nil {
		return err
	}
	for _, o := range outcomes {
		if l, ok := legacy[o.ID]; ok {
			checker.WriteLegacyAttack(out, l)
		}
		fmt.Fprintln(out, "  improved:", o)
		fmt.Fprintln(out)
		if o.Succeeded {
			disagreements++
		}
	}
	if disagreements > 0 {
		return fmt.Errorf("%d outcome(s) disagree with the paper", disagreements)
	}
	fmt.Fprintln(out, "All outcomes match the paper: the legacy protocol falls to every")
	fmt.Fprintln(out, "attack; the improved protocol tolerates all of them.")
	return nil
}
