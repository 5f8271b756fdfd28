// Command verify runs the bounded formal verification of the improved
// Enclaves protocol (Section 5 of the paper) and the attack search against
// the legacy baseline (Section 2.3), printing a report that mirrors the
// paper's theorem list and verification diagram (Figure 4).
//
// Usage:
//
//	verify [-sessions N] [-admin N] [-rekeys N] [-fsm] [-json | -dot]
//	       [-intruder-sessions] [-lkh]
//
// Each exploration is a sequential breadth-first search; the main
// configuration, the extension ablations and the legacy model are explored
// concurrently.
//
// Exit status is nonzero if any obligation fails — i.e. if the
// implementation's model disagrees with the paper.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"enclaves/internal/checker"
	"enclaves/internal/model"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "verify:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	var (
		sessions = fs.Int("sessions", 2, "bound on user sessions in the improved model")
		admin    = fs.Int("admin", 2, "bound on admin messages per session")
		rekeys   = fs.Int("rekeys", 2, "bound on rekeys in the legacy model")
		fsm      = fs.Bool("fsm", false, "also print the state machines of Figures 2 and 3")
		asJSON   = fs.Bool("json", false, "emit the report as JSON instead of text")
		eMember  = fs.Bool("intruder-sessions", false, "let the leader also serve the compromised member E (larger space)")
		lkh      = fs.Bool("lkh", false, "enable the LKH key-tree extension (adds the 5.6 forward-secrecy obligation; skips the Figure 4 diagram)")
		dot      = fs.Bool("dot", false, "emit only the Figure 4 diagram in Graphviz DOT format")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *fsm {
		printFSMs(out)
	}

	cfg := model.Config{MaxSessions: *sessions, MaxAdmin: *admin, IntruderSessions: *eMember, LKH: *lkh}
	rep := checker.Run(cfg, model.LegacyConfig{MaxRekeys: *rekeys})
	if *dot {
		if rep.Diagram == nil {
			return fmt.Errorf("no diagram: the Figure 4 abstraction only covers the base configuration (drop -lkh)")
		}
		fmt.Fprint(out, rep.Diagram.DOT())
		if !rep.AllHold() {
			return fmt.Errorf("verification FAILED")
		}
		return nil
	}

	if *asJSON {
		if err := writeJSON(out, rep); err != nil {
			return err
		}
	} else {
		fmt.Fprint(out, rep)
	}
	if !rep.AllHold() {
		return fmt.Errorf("verification FAILED")
	}
	if !*asJSON {
		fmt.Fprintln(out, "\nAll obligations discharged; all legacy attacks found.")
	}
	return nil
}

// jsonObligation is the machine-readable form of one obligation.
type jsonObligation struct {
	ID      string   `json:"id"`
	Name    string   `json:"name"`
	Holds   bool     `json:"holds"`
	Detail  string   `json:"detail,omitempty"`
	Witness []string `json:"witness,omitempty"`
}

// jsonExtension is the machine-readable form of one concurrently-explored
// ablation configuration.
type jsonExtension struct {
	Name        string           `json:"name"`
	States      int              `json:"states"`
	Transitions int              `json:"transitions"`
	Depth       int              `json:"depth"`
	Obligations []jsonObligation `json:"obligations"`
}

// jsonReport is the machine-readable verification report. The run
// configuration (lkh, intruderSessions) and timing fields make it
// self-describing.
type jsonReport struct {
	Sessions         int              `json:"sessions"`
	Admin            int              `json:"adminPerSession"`
	LKH              bool             `json:"lkh"`
	IntruderSessions bool             `json:"intruderSessions"`
	WallMs           float64          `json:"wallMs"`
	StatesPerSec     float64          `json:"statesPerSec"`
	TotalStates      int              `json:"totalStates"`
	States           int              `json:"states"`
	Transitions      int              `json:"transitions"`
	Depth            int              `json:"depth"`
	Improved         []jsonObligation `json:"improved"`
	Extensions       []jsonExtension  `json:"extensions,omitempty"`
	BoxCounts        map[string]int   `json:"diagramBoxCounts"`
	EdgeCounts       map[string]int   `json:"diagramEdgeCounts"`
	LegacyStates     int              `json:"legacyStates"`
	Legacy           []jsonObligation `json:"legacyAttacks"`
	AllHold          bool             `json:"allHold"`
}

// writeJSON renders the report as indented JSON.
func writeJSON(out io.Writer, rep *checker.Report) error {
	jr := jsonReport{
		Sessions:         rep.Config.MaxSessions,
		Admin:            rep.Config.MaxAdmin,
		LKH:              rep.Config.LKH,
		IntruderSessions: rep.Config.IntruderSessions,
		WallMs:           float64(rep.Elapsed.Microseconds()) / 1000,
		StatesPerSec:     rep.StatesPerSec(),
		TotalStates:      rep.TotalStates(),
		States:           rep.States,
		Transitions:      rep.Edges,
		Depth:            rep.Depth,
		LegacyStates:     rep.LegacyStates,
		AllHold:          rep.AllHold(),
	}
	for _, o := range rep.Improved {
		jr.Improved = append(jr.Improved, jsonObligation{
			ID: o.ID, Name: o.Name, Holds: o.Holds, Detail: o.Detail, Witness: o.Witness,
		})
	}
	for _, e := range rep.Extensions {
		je := jsonExtension{Name: e.Name, States: e.States, Transitions: e.Transitions, Depth: e.Depth}
		for _, o := range e.Obligations {
			je.Obligations = append(je.Obligations, jsonObligation{
				ID: o.ID, Name: o.Name, Holds: o.Holds, Detail: o.Detail, Witness: o.Witness,
			})
		}
		jr.Extensions = append(jr.Extensions, je)
	}
	for _, o := range rep.Legacy {
		jr.Legacy = append(jr.Legacy, jsonObligation{
			ID: o.ID, Name: o.Name, Holds: o.Holds, Detail: o.Detail, Witness: o.Witness,
		})
	}
	if rep.Diagram != nil {
		jr.BoxCounts = rep.Diagram.BoxCounts
		jr.EdgeCounts = rep.Diagram.EdgeCounts
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(jr)
}

// printFSMs renders the transition systems of Figures 2 and 3.
func printFSMs(out io.Writer) {
	fmt.Fprintln(out, `User A (Figure 2):
  NotConnected      --send AuthInitReq{A,L,N1}_Pa-------------> WaitingForKey(N1)
  WaitingForKey(N1) --recv {L,A,N1,N2,Ka}_Pa / send
                      AuthAckKey{A,L,N2,N3}_Ka----------------> Connected(N3,Ka)
  Connected(N,Ka)   --recv AdminMsg{L,A,N,N',X}_Ka / send
                      Ack{A,L,N',N''}_Ka-----------------------> Connected(N'',Ka)
  Connected(N,Ka)   --send ReqClose{A,L}_Ka-------------------> NotConnected

Leader L, per user A (Figure 3):
  NotConnected            --recv {A,L,N1}_Pa / send
                            {L,A,N1,N2,Ka}_Pa------------------> WaitingForKeyAck(N2,Ka)
  WaitingForKeyAck(N2,Ka) --recv {A,L,N2,N3}_Ka----------------> Connected(N3,Ka)
  Connected(N,Ka)         --send AdminMsg{L,A,N,N',X}_Ka-------> WaitingForAck(N',Ka)
  WaitingForAck(N',Ka)    --recv Ack{A,L,N',N''}_Ka------------> Connected(N'',Ka)
  any non-NotConnected    --recv ReqClose{A,L}_Ka / Oops(Ka)---> NotConnected`)
	fmt.Fprintln(out)
}
