// Membership: view accuracy under churn.
//
// The paper's central requirement is "it is important for each user to have
// an accurate view of who is in the group" (Section 3.1). This example
// drives heavy join/leave churn — dozens of joins, voluntary leaves, and
// expulsions — and after every quiescent point compares every member's view
// against the leader's authoritative membership. Because group-management
// messages are delivered in order, without duplication, and only from the
// leader (the verified Section 5.4 properties), the views always converge
// to the truth.
//
// Run with:
//
//	go run ./examples/membership
package main

import (
	"fmt"
	"log"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"time"

	"enclaves/internal/crypto"
	"enclaves/internal/group"
	"enclaves/internal/member"
	"enclaves/internal/transport"
)

const (
	leaderName = "registrar"
	population = 8  // distinct users
	rounds     = 30 // churn operations
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	rng := rand.New(rand.NewSource(7)) // deterministic churn schedule

	users := make(map[string]crypto.Key, population)
	names := make([]string, population)
	for i := range names {
		names[i] = fmt.Sprintf("user%02d", i)
		users[names[i]] = crypto.DeriveKey(names[i], leaderName, names[i]+"-pw")
	}

	leader, err := group.NewLeader(group.Config{
		Name:  leaderName,
		Users: users,
		Rekey: group.DefaultRekeyPolicy(),
	})
	if err != nil {
		return err
	}
	net := transport.NewMemNetwork()
	defer net.Close()
	listener, err := net.Listen(leaderName)
	if err != nil {
		return err
	}
	go leader.Serve(listener)
	defer leader.Close()

	active := make(map[string]*member.Member)
	checks, mismatches := 0, 0

	for round := 1; round <= rounds; round++ {
		name := names[rng.Intn(len(names))]
		m, in := active[name]
		var op string
		switch {
		case !in:
			conn, err := net.Dial(leaderName)
			if err != nil {
				return err
			}
			joined, err := member.Join(conn, name, leaderName, users[name])
			if err != nil {
				return fmt.Errorf("join %s: %w", name, err)
			}
			active[name] = joined
			op = "join"
		case rng.Intn(4) == 0:
			if err := leader.Expel(name); err != nil {
				return err
			}
			go drainUntilClosed(m)
			delete(active, name)
			op = "expel"
		default:
			if err := m.Leave(); err != nil {
				return err
			}
			delete(active, name)
			op = "leave"
		}

		// Quiesce, then audit every view against the leader's truth.
		truth, ok := waitQuiescent(leader, active)
		if !ok {
			return fmt.Errorf("round %d (%s %s): views never converged", round, op, name)
		}
		checks++
		for _, m := range active {
			if !reflect.DeepEqual(m.Members(), truth) {
				mismatches++
				fmt.Printf("round %2d: %s has STALE view %v != %v\n", round, m.Name(), m.Members(), truth)
			}
		}
		fmt.Printf("round %2d: %-6s %-7s members=%d epoch=%-3d views-consistent=%t\n",
			round, op, name, len(truth), leader.Epoch(), mismatches == 0)
	}

	fmt.Printf("\n%d churn rounds, %d audits, %d stale views\n", rounds, checks, mismatches)
	if mismatches > 0 {
		return fmt.Errorf("membership views diverged")
	}
	fmt.Println("every member's view matched the leader's membership at every quiescent point")
	for _, m := range active {
		if err := m.Leave(); err != nil {
			return err
		}
	}
	return nil
}

// waitQuiescent waits until the leader's membership is exactly the active
// set and every active member's view and epoch match the leader's, returning
// the leader's membership. Leave returns before the leader has processed it,
// so a leader view that still lists the leaver is not yet quiescent.
func waitQuiescent(leader *group.Leader, active map[string]*member.Member) ([]string, bool) {
	want := slices.Sorted(maps.Keys(active))
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		truth := leader.Members()
		epoch := leader.Epoch()
		ok := slices.Equal(truth, want)
		for _, m := range active {
			if m.Epoch() != epoch || !reflect.DeepEqual(m.Members(), truth) {
				ok = false
				break
			}
		}
		if ok {
			return truth, true
		}
		time.Sleep(time.Millisecond)
	}
	return nil, false
}

// drainUntilClosed consumes an expelled member's events so its queue closes
// cleanly.
func drainUntilClosed(m *member.Member) {
	for {
		if _, err := m.Next(); err != nil {
			return
		}
	}
}
