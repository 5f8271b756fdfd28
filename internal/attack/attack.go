// Package attack contains executable attack scenarios for the weaknesses
// catalogued in Section 2.3 of the paper, run against the improved
// implementation (packages core/group/member):
//
//	A1  forged connection_denied    — denial of service on join
//	A2  forged mem_removed          — membership-view corruption by an insider
//	A3  new_key replay              — group-key rollback by a past member
//	A4  forged close                — forced disconnect of a live member
//	A5  old-session-key compromise  — leaked old keys vs a fresh session
//
// Every attack fails. The legacy protocol of Section 2.2 exists only as a
// model (internal/model), where the checker finds A1-A4 as counterexample
// traces; cmd/attackdemo prints each trace beside the live rejection,
// reproducing the paper's qualitative claim (experiment ids A1-A5 in
// DESIGN.md).
//
// Each scenario puts a faultnet.Link — the Dolev-Yao network of Section 3.1 —
// in front of the connection the victim dials: the attacker observes all
// frames and injects or replays at will, and — for the insider attacks —
// participates as a legitimately joined member who leaks its keys. The Link
// wraps whatever the Medium dials, so the same scenarios run over an
// in-memory network and against a leader behind a real TCP socket.
package attack

import (
	"fmt"
	"time"

	"enclaves/internal/transport"
)

// Medium opens the network one scenario runs on: the listener its leader
// serves, and the dialer that reaches that listener's address.
type Medium func() (transport.Listener, func(addr string) (transport.Conn, error), error)

// Memory is the in-process medium: a fresh transport.MemNetwork.
func Memory() (transport.Listener, func(addr string) (transport.Conn, error), error) {
	net := transport.NewMemNetwork()
	l, err := net.Listen(leaderName)
	return l, net.Dial, err
}

// TCP is the deployed medium: a loopback socket, every stream mux-framed.
func TCP() (transport.Listener, func(addr string) (transport.Conn, error), error) {
	l, err := transport.ListenTCP("127.0.0.1:0")
	return l, transport.DialTCP, err
}

// Outcome is the result of one attack scenario against the improved
// protocol.
type Outcome struct {
	// ID is the attack identifier (A1..A5).
	ID string
	// Name describes the attack.
	Name string
	// Succeeded reports whether the ATTACK achieved its goal; the paper
	// predicts it never does.
	Succeeded bool
	// Detail is a one-line account of what happened.
	Detail string
}

func (o Outcome) String() string {
	verdict, marker := "ATTACK FAILED", "as the paper predicts"
	if o.Succeeded {
		verdict, marker = "ATTACK SUCCEEDED", "DISAGREES WITH PAPER"
	}
	return fmt.Sprintf("[%s] %-38s %-16s (%s) — %s", o.ID, o.Name, verdict, marker, o.Detail)
}

// Scenario is a runnable attack.
type Scenario struct {
	ID   string
	Name string
	Run  func(Medium) (Outcome, error)
}

// All returns every scenario in report order.
func All() []Scenario {
	return []Scenario{
		{"A1", "forged connection_denied (DoS)", ForgedDenialImproved},
		{"A2", "insider forges mem_removed", MembershipForgeryImproved},
		{"A3", "new_key replay (key rollback)", KeyRollbackImproved},
		{"A4", "forged close (forced disconnect)", ForcedDisconnectImproved},
		// A5 has no legacy counterpart: the legacy protocol's old-key
		// weakness is already attack A3 (group-key rollback). A5 checks
		// the paper's explicit Section 3.1 requirement on the improved
		// protocol: old SESSION keys are worthless to the attacker.
		{"A5", "old-session-key compromise", OldSessionKeyCompromise},
	}
}

// RunAll executes every scenario on net and returns the outcomes.
func RunAll(net Medium) ([]Outcome, error) {
	var out []Outcome
	for _, s := range All() {
		o, err := s.Run(net)
		if err != nil {
			return out, fmt.Errorf("attack %s: %w", s.ID, err)
		}
		out = append(out, o)
	}
	return out, nil
}

// waitUntil polls cond for up to the timeout.
func waitUntil(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return false
}

const settle = 5 * time.Second
