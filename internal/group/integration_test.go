package group

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"enclaves/internal/crypto"
	"enclaves/internal/member"
	"enclaves/internal/transport"
)

// TestGroupOverTCP runs the full stack — leader, three members, join,
// multicast, rekey, leave — over real TCP sockets instead of the in-memory
// network.
func TestGroupOverTCP(t *testing.T) {
	users := map[string]crypto.Key{
		"alice": crypto.DeriveKey("alice", leaderName, "alice-pw"),
		"bob":   crypto.DeriveKey("bob", leaderName, "bob-pw"),
		"carol": crypto.DeriveKey("carol", leaderName, "carol-pw"),
	}
	g, err := NewLeader(Config{Name: leaderName, Users: users, Rekey: DefaultRekeyPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	l, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go g.Serve(l)
	t.Cleanup(func() {
		g.Close()
		l.Close()
	})

	joinTCP := func(user string) *member.Member {
		conn, err := transport.DialTCP(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		m, err := member.Join(conn, user, leaderName, users[user])
		if err != nil {
			t.Fatalf("join %s over TCP: %v", user, err)
		}
		return m
	}

	alice := joinTCP("alice")
	defer alice.Leave()
	bob := joinTCP("bob")
	defer bob.Leave()
	carol := joinTCP("carol")

	waitFor(t, "three members", func() bool { return len(g.Members()) == 3 })
	waitFor(t, "epochs converge", func() bool {
		e := g.Epoch()
		return alice.Epoch() == e && bob.Epoch() == e && carol.Epoch() == e
	})

	if err := alice.SendData([]byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	for _, m := range []*member.Member{bob, carol} {
		ev := waitEvent(t, m, "data", func(e member.Event) bool { return e.Kind == member.EventData })
		if string(ev.Data) != "over tcp" || ev.From != "alice" {
			t.Errorf("%s got %v", m.Name(), ev)
		}
	}

	if err := carol.Leave(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "carol gone", func() bool { return len(g.Members()) == 2 })
	waitFor(t, "views updated", func() bool {
		return fmt.Sprint(alice.Members()) == fmt.Sprint([]string{"alice", "bob"}) &&
			fmt.Sprint(bob.Members()) == fmt.Sprint([]string{"alice", "bob"})
	})
}

// TestConcurrentJoins floods the leader with parallel joins and verifies
// all of them are accepted and converge.
func TestConcurrentJoins(t *testing.T) {
	const n = 12
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("user%02d", i)
	}
	g, net := testGroup(t, RekeyPolicy{}, names...)

	var wg sync.WaitGroup
	members := make([]*member.Member, n)
	errs := make([]error, n)
	for i, u := range names {
		wg.Add(1)
		go func(i int, u string) {
			defer wg.Done()
			conn, err := net.Dial(leaderName)
			if err != nil {
				errs[i] = err
				return
			}
			members[i], errs[i] = member.Join(conn, u, leaderName, crypto.DeriveKey(u, leaderName, u+"-pw"))
		}(i, u)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("join %s: %v", names[i], err)
		}
	}
	defer func() {
		for _, m := range members {
			m.Leave()
		}
	}()

	waitFor(t, "all joined", func() bool { return len(g.Members()) == n })
	waitFor(t, "all keyed", func() bool {
		for _, m := range members {
			if m.Epoch() != g.Epoch() {
				return false
			}
		}
		return true
	})
	waitFor(t, "all views complete", func() bool {
		for _, m := range members {
			if len(m.Members()) != n {
				return false
			}
		}
		return true
	})
}

// TestRelayPerSenderFIFO checks that relayed application data preserves
// each sender's order at every receiver (the relay must not reorder a
// single member's stream).
func TestRelayPerSenderFIFO(t *testing.T) {
	_, net := testGroup(t, RekeyPolicy{}, "alice", "bob")
	alice := join(t, net, "alice")
	defer alice.Leave()
	bob := join(t, net, "bob")
	defer bob.Leave()
	waitFor(t, "both keyed", func() bool { return alice.Epoch() == 1 && bob.Epoch() == 1 })

	const n = 100
	for i := 0; i < n; i++ {
		if err := alice.SendData([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	deadline := time.Now().Add(10 * time.Second)
	for next < n && time.Now().Before(deadline) {
		ev, ok := bob.TryNext()
		if !ok {
			time.Sleep(time.Millisecond)
			continue
		}
		if ev.Kind != member.EventData {
			continue
		}
		if len(ev.Data) != 1 || int(ev.Data[0]) != next {
			t.Fatalf("out of order: got %v want %d", ev.Data, next)
		}
		next++
	}
	if next != n {
		t.Fatalf("received %d/%d messages", next, n)
	}
}

// TestSoakChurn is a longer churn soak: many join/leave/expel/rekey cycles
// with view audits, guarded by -short.
func TestSoakChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test in -short mode")
	}
	const population = 6
	names := make([]string, population)
	for i := range names {
		names[i] = fmt.Sprintf("soak%02d", i)
	}
	g, net := testGroup(t, DefaultRekeyPolicy(), names...)

	active := make(map[string]*member.Member)
	for round := 0; round < 60; round++ {
		name := names[round%population]
		if m, in := active[name]; in {
			switch round % 3 {
			case 0:
				if err := m.Leave(); err != nil {
					t.Fatalf("round %d leave: %v", round, err)
				}
			default:
				if err := g.Expel(name); err != nil {
					t.Fatalf("round %d expel: %v", round, err)
				}
				go func() {
					for {
						if _, err := m.Next(); err != nil {
							return
						}
					}
				}()
			}
			delete(active, name)
		} else {
			active[name] = join(t, net, name)
		}
		if round%10 == 9 {
			if err := g.Rekey(); err != nil {
				t.Fatal(err)
			}
		}
		// Quiesce and audit all views.
		waitFor(t, fmt.Sprintf("round %d convergence", round), func() bool {
			truth := fmt.Sprint(g.Members())
			epoch := g.Epoch()
			for _, m := range active {
				if m.Epoch() != epoch || fmt.Sprint(m.Members()) != truth {
					return false
				}
			}
			return true
		})
	}
	for _, m := range active {
		if err := m.Leave(); err != nil {
			t.Fatal(err)
		}
	}
}
