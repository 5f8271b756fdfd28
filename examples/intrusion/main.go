// Intrusion: the Section 2.3 attacks, live, against both protocols.
//
// This example wires a victim's connection through an adversarial network
// hub (package transport's Link) and launches the paper's attacks — forged
// denial, insider membership forgery, group-key rollback by replay, and
// forced disconnect — first against the original Enclaves protocol of
// Section 2.2, then against the improved protocol of Section 3.2. The
// legacy victim is deceived every time; the improved victim rejects every
// forged or replayed frame and keeps accurate state.
//
// Run with:
//
//	go run ./examples/intrusion
package main

import (
	"fmt"
	"log"

	"enclaves/internal/attack"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("Intrusion tolerance, demonstrated")
	fmt.Println("=================================")
	fmt.Println()
	fmt.Println("Threat model (paper, Section 3.1): the attacker reads everything,")
	fmt.Println("replays old messages, injects anything it can construct, and may be")
	fmt.Println("a PAST OR PRESENT group member leaking its keys.")
	fmt.Println()

	scenarios := attack.All()
	var current string
	failures := 0
	for _, s := range scenarios {
		if s.ID != current {
			current = s.ID
			fmt.Printf("--- %s: %s ---\n", s.ID, s.Name)
		}
		o, err := s.Run(attack.Memory)
		if err != nil {
			return fmt.Errorf("scenario %s/%s: %w", s.ID, s.Protocol, err)
		}
		status := "tolerated "
		if o.Succeeded {
			status = "VULNERABLE"
		}
		fmt.Printf("  %-8s  %s  %s\n", o.Protocol, status, o.Detail)
		if !o.AsExpected() {
			failures++
			fmt.Printf("  !! outcome disagrees with the paper\n")
		}
	}
	fmt.Println()
	if failures > 0 {
		return fmt.Errorf("%d outcomes disagreed with the paper", failures)
	}
	fmt.Println("Result: the legacy protocol fell to all four attacks; the improved")
	fmt.Println("protocol — with its chained fresh nonces and per-member session-key")
	fmt.Println("authentication — tolerated every one of them, exactly as proven in")
	fmt.Println("Section 5 of the paper.")
	return nil
}
