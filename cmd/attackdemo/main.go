// Command attackdemo executes the Section 2.3 attacks against both Enclaves
// implementations and prints the outcome table: every attack succeeds
// against the legacy protocol and fails against the improved one.
//
// Usage:
//
//	attackdemo
//
// Exit status is nonzero if any outcome disagrees with the paper.
package main

import (
	"fmt"
	"io"
	"os"

	"enclaves/internal/attack"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "attackdemo:", err)
		os.Exit(1)
	}
}

func run(out io.Writer) error {
	fmt.Fprintln(out, "Enclaves attack demonstration (Section 2.3 of DSN'01 paper)")
	fmt.Fprintln(out, "Every scenario runs the real implementations over an adversarial network.")
	fmt.Fprintln(out)

	outcomes, err := attack.RunAll(attack.Memory)
	if err != nil {
		return err
	}
	disagreements := 0
	for _, o := range outcomes {
		fmt.Fprintln(out, o)
		if !o.AsExpected() {
			disagreements++
		}
	}
	fmt.Fprintln(out)
	if disagreements > 0 {
		return fmt.Errorf("%d outcome(s) disagree with the paper", disagreements)
	}
	fmt.Fprintln(out, "All outcomes match the paper: the legacy protocol falls to every")
	fmt.Fprintln(out, "attack; the improved protocol tolerates all of them.")
	return nil
}
