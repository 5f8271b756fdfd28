package group

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"enclaves/internal/crypto"
	"enclaves/internal/member"
	"enclaves/internal/queue"
	"enclaves/internal/transport"
	"enclaves/internal/wire"
)

// TestOutboxDepthGaugeAggregates: the depth gauge is an aggregate across
// every member outbox — pushes to two different outboxes both count, drains
// subtract exactly what was drained, and a failed push (full outbox) leaves
// the gauge untouched. The previous last-writer-wins Set made the gauge the
// depth of whichever outbox happened to be touched last, which under
// concurrent writers reads as noise.
func TestOutboxDepthGaugeAggregates(t *testing.T) {
	withMetrics(t)

	base := mOutboxDepth.Value()
	a := newTestConn("a", 2)
	b := newTestConn("b", 2)

	for i := 0; i < 2; i++ {
		if err := a.pushOut(outFrame{body: wire.Heartbeat{}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.pushOut(outFrame{body: wire.Heartbeat{}}); err != nil {
		t.Fatal(err)
	}
	if got := mOutboxDepth.Value() - base; got != 3 {
		t.Fatalf("after 3 pushes across 2 outboxes: gauge delta = %d, want 3", got)
	}

	// A rejected push (outbox full) must not move the aggregate.
	if err := a.pushOut(outFrame{body: wire.Heartbeat{}}); err != queue.ErrFull {
		t.Fatalf("push to full outbox: err = %v, want ErrFull", err)
	}
	if got := mOutboxDepth.Value() - base; got != 3 {
		t.Fatalf("after rejected push: gauge delta = %d, want 3", got)
	}

	// Draining subtracts exactly the number of frames drained.
	frames, err := a.out.PopAll(nil)
	if err != nil {
		t.Fatal(err)
	}
	a.drained(len(frames))
	if got := mOutboxDepth.Value() - base; got != 1 {
		t.Fatalf("after draining outbox a: gauge delta = %d, want 1", got)
	}
	if _, ok := b.out.TryPop(); !ok {
		t.Fatal("outbox b unexpectedly empty")
	}
	b.drained(1)
	if got := mOutboxDepth.Value() - base; got != 0 {
		t.Fatalf("after draining everything: gauge delta = %d, want 0", got)
	}
}

// TestOutboxDepthGaugeConcurrent: with concurrent relays pushing to many
// outboxes in parallel, the gauge must stay exact — balanced push/drain
// traffic from many goroutines lands the aggregate back on the baseline
// with no lost updates. Run under -race this also proves the memory safety
// of the path concurrent fan-outs rely on.
func TestOutboxDepthGaugeConcurrent(t *testing.T) {
	withMetrics(t)
	base := mOutboxDepth.Value()

	const members = 64
	conns := make([]*memberConn, members)
	for i := range conns {
		conns[i] = newTestConn(fmt.Sprintf("m%02d", i), 8)
	}

	// Each worker owns a disjoint set of outboxes and runs push-then-drain
	// rounds, all on the one gauge.
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				for i := w; i < members; i += workers {
					s := conns[i]
					if err := s.pushOut(outFrame{body: wire.Heartbeat{}}); err != nil {
						t.Error(err)
						return
					}
					if _, ok := s.out.TryPop(); !ok {
						t.Error("own outbox unexpectedly empty")
						return
					}
					s.drained(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := mOutboxDepth.Value(); got != base {
		t.Fatalf("after balanced concurrent push/drain: gauge = %d, want baseline %d", got, base)
	}
}

// TestOutboxDepthGaugeReturnsToZero: after live traffic through a real
// leader — join, rekey broadcast, multicast relay, leave — every queued
// frame was eventually drained or retired, so the aggregate gauge returns
// to its starting level. This catches both leak directions: a push site
// that bypasses pushOut (gauge ends low) and a drain that is never
// accounted (gauge ends high).
func TestOutboxDepthGaugeReturnsToZero(t *testing.T) {
	withMetrics(t)
	base := mOutboxDepth.Value()

	keys := map[string]crypto.Key{
		"alice": crypto.DeriveKey("alice", leaderName, "pw"),
		"bob":   crypto.DeriveKey("bob", leaderName, "pw"),
	}
	g, err := NewLeader(Config{Name: leaderName, Users: keys, Rekey: RekeyPolicy{OnLeave: true}})
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewMemNetwork()
	defer net.Close()
	l, err := net.Listen(leaderName)
	if err != nil {
		t.Fatal(err)
	}
	go g.Serve(l)

	join := func(user string) *member.Member {
		conn, err := net.Dial(leaderName)
		if err != nil {
			t.Fatal(err)
		}
		m, err := member.Join(conn, user, leaderName, keys[user])
		if err != nil {
			t.Fatal(err)
		}
		// The multicast below needs alice's key, which lands after Join.
		if err := m.WaitReady(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		go func() {
			for {
				if _, err := m.Next(); err != nil {
					return
				}
			}
		}()
		return m
	}
	alice := join("alice")
	bob := join("bob")
	waitFor(t, "both accepted", func() bool { return len(g.Members()) == 2 })

	if err := g.Rekey(); err != nil {
		t.Fatal(err)
	}
	if err := alice.SendData([]byte("payload")); err != nil {
		t.Fatal(err)
	}

	alice.Leave()
	bob.Leave()
	g.Close()
	waitFor(t, "gauge back to baseline", func() bool {
		return mOutboxDepth.Value() == base
	})
}
