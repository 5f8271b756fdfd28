package group

import (
	"sync/atomic"
	"testing"
	"time"

	"enclaves/internal/crypto"
	"enclaves/internal/member"
	"enclaves/internal/transport"
	"enclaves/internal/wire"
)

// last returns the most recent event of the given kind (eventLog itself
// lives in audit_test.go).
func (l *eventLog) last(k EventKind) (Event, bool) {
	evs := l.snapshot()
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].Kind == k {
			return evs[i], true
		}
	}
	return Event{}, false
}

// coalescedGroup spins up a leader with a rekey-coalescing window and an
// audit log on an in-memory network.
func coalescedGroup(t *testing.T, cfg Config, users ...string) (*Leader, *transport.MemNetwork, *eventLog) {
	t.Helper()
	logr := &eventLog{}
	keys := make(map[string]crypto.Key, len(users))
	for _, u := range users {
		keys[u] = crypto.DeriveKey(u, leaderName, u+"-pw")
	}
	cfg.Name = leaderName
	cfg.Users = keys
	cfg.OnEvent = logr.sink
	g, err := NewLeader(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net := NewMemNetworkForTest(t)
	l, err := net.Listen(leaderName)
	if err != nil {
		t.Fatal(err)
	}
	go g.Serve(l)
	t.Cleanup(func() {
		g.Close()
		l.Close()
	})
	return g, net, logr
}

// TestCoalescedJoinBurstSingleRekey is the acceptance test for the
// coalescing window: a burst of k joins landing inside it must produce
// exactly one epoch increment and one NewGroupKey broadcast — one
// EventRekeyed — instead of k, and every member must converge to that one
// post-burst epoch.
func TestCoalescedJoinBurstSingleRekey(t *testing.T) {
	users := []string{"u0", "u1", "u2", "u3", "u4"}
	g, net, logr := coalescedGroup(t, Config{
		Rekey:         RekeyPolicy{OnJoin: true},
		RekeyCoalesce: 500 * time.Millisecond,
	}, users...)

	// The whole burst lands well inside the 500ms window (in-memory
	// handshakes take microseconds).
	members := make([]*member.Member, 0, len(users))
	for _, u := range users {
		m := join(t, net, u)
		defer m.Leave()
		members = append(members, m)
	}
	waitFor(t, "all joined", func() bool { return len(g.Members()) == len(users) })

	// Inside the window nothing has rotated: the group still runs epoch 1
	// and every joiner was handed the current key, not a fresh one.
	if e := g.Epoch(); e != 1 {
		t.Fatalf("epoch rotated inside the window: %d, want 1", e)
	}
	if n := logr.count(EventRekeyed); n != 0 {
		t.Fatalf("%d rekeys inside the window, want 0", n)
	}

	// The window fires: exactly one rotation for the whole burst.
	waitFor(t, "coalesced rekey fired", func() bool { return g.Epoch() == 2 })
	for _, m := range members {
		m := m
		waitFor(t, "member on the coalesced epoch", func() bool {
			for {
				if _, ok := m.TryNext(); !ok {
					break
				}
			}
			return m.Epoch() == 2
		})
	}
	// Quiescence: give a straggler rotation a chance to fire, then assert
	// the burst cost exactly one.
	time.Sleep(600 * time.Millisecond)
	if e := g.Epoch(); e != 2 {
		t.Fatalf("final epoch = %d, want exactly 2 (one coalesced rotation)", e)
	}
	if n := logr.count(EventRekeyed); n != 1 {
		t.Fatalf("audit saw %d EventRekeyed, want exactly 1 for the burst", n)
	}
	// The one rotation says what it stood for: all five joins.
	if e, _ := logr.last(EventRekeyed); e.Detail != "coalesced 5" {
		t.Errorf("rekey cause = %q, want %q", e.Detail, "coalesced 5")
	}
}

// muteConn wraps a member-side conn; once armed it silently drops every
// outgoing frame, so the member keeps receiving but the leader hears
// nothing — the ack-deadline eviction scenario, deterministically.
type muteConn struct {
	transport.Conn
	mute atomic.Bool
}

func (c *muteConn) Send(e wire.Envelope) error {
	if c.mute.Load() {
		return nil
	}
	return c.Conn.Send(e)
}

// TestCoalescedEvictionForwardSecrecy: with a coalescing window configured,
// an evicted member's rekey may be debounced — but the member is removed
// from the registry before the window fires, so the post-eviction key is
// broadcast only to survivors. The victim's last-seen epoch must strictly
// precede the group's post-eviction epoch: forward secrecy survives
// coalescing.
func TestCoalescedEvictionForwardSecrecy(t *testing.T) {
	g, net, logr := coalescedGroup(t, Config{
		Rekey:         RekeyPolicy{OnLeave: true},
		RekeyCoalesce: 100 * time.Millisecond,
		Liveness: Liveness{
			HeartbeatInterval: 30 * time.Millisecond,
			AckTimeout:        250 * time.Millisecond,
		},
	}, "victim", "survivor")

	raw, err := net.Dial(leaderName)
	if err != nil {
		t.Fatal(err)
	}
	lossy := &muteConn{Conn: raw}
	victim, err := member.Join(lossy, "victim", leaderName, crypto.DeriveKey("victim", leaderName, "victim-pw"))
	if err != nil {
		t.Fatal(err)
	}
	survivor := join(t, net, "survivor")
	defer survivor.Leave()
	go func() {
		for {
			if _, err := survivor.Next(); err != nil {
				return
			}
		}
	}()
	waitFor(t, "both joined", func() bool { return len(g.Members()) == 2 })

	// Drain the victim's events on its own goroutine so it tracks every
	// NewGroupKey it is actually sent; then mute it.
	go func() {
		for {
			if _, err := victim.Next(); err != nil {
				return
			}
		}
	}()
	waitFor(t, "victim keyed", func() bool { return victim.Epoch() >= 1 })
	lossy.mute.Store(true)

	waitFor(t, "victim evicted", func() bool {
		_, ok := logr.last(EventEvicted)
		return ok
	})
	// The eviction's debounced rotation fires after the window.
	evicted, _ := logr.last(EventEvicted)
	waitFor(t, "post-eviction rekey", func() bool { return g.Epoch() > evicted.Epoch })

	// The victim is out of the registry, so the post-eviction key can never
	// have reached it: its view is frozen strictly before the new epoch.
	if ve, ge := victim.Epoch(), g.Epoch(); ve >= ge {
		t.Fatalf("victim saw epoch %d, group is at %d — an evicted member observed a post-eviction key", ve, ge)
	}
	// And the rekey the eviction triggered really was debounced, not
	// immediate: the eviction event's epoch is the pre-rotation one. The
	// audit stream is async, so wait for the record to land.
	waitFor(t, "audit records the post-eviction rekey", func() bool {
		rekeyed, ok := logr.last(EventRekeyed)
		return ok && rekeyed.Epoch > evicted.Epoch
	})
}

// TestExpelImmediateUnderCoalescing: Expel never waits on the window — the
// rotation happens synchronously inside the Expel call, and the audit
// event is stamped with the epoch the expulsion rotated to (the satellite
// fix: the epoch is captured under the lock, so a concurrent rotation
// cannot skew it).
func TestExpelImmediateUnderCoalescing(t *testing.T) {
	withMetrics(t)
	g, net, logr := coalescedGroup(t, Config{
		Rekey:         DefaultRekeyPolicy(),
		RekeyCoalesce: time.Minute, // a window that will never fire during the test
	}, "target", "bystander")

	target := join(t, net, "target")
	bystander := join(t, net, "bystander")
	defer bystander.Leave()
	go func() {
		for {
			if _, err := target.Next(); err != nil {
				return
			}
		}
	}()
	go func() {
		for {
			if _, err := bystander.Next(); err != nil {
				return
			}
		}
	}()
	waitFor(t, "both joined", func() bool { return len(g.Members()) == 2 })

	// Joins under OnJoin+window armed the debounce; the expulsion's
	// immediate rotation must absorb it (counted as coalesced) rather than
	// leave a stale timer behind.
	coalescedBefore := mRekeysCoalesced.Value()
	epochBefore := g.Epoch()
	if err := g.Expel("target"); err != nil {
		t.Fatal(err)
	}
	// Synchronous: no waitFor — the epoch already moved.
	if e := g.Epoch(); e != epochBefore+1 {
		t.Fatalf("expel did not rotate synchronously: epoch %d, want %d", e, epochBefore+1)
	}
	waitFor(t, "expel and its rotation audited", func() bool {
		r, ok := logr.last(EventRekeyed)
		return ok && r.Detail == "expel target"
	})
	// The expulsion is stamped with the epoch in force when it happened and
	// precedes the rotation it triggered, which carries the new epoch.
	expelled, _ := logr.last(EventExpelled)
	rotation, _ := logr.last(EventRekeyed)
	if expelled.Epoch != epochBefore || rotation.Epoch != epochBefore+1 || expelled.Seq > rotation.Seq {
		t.Fatalf("expel #%d at epoch %d, rotation #%d to epoch %d; want the expulsion at %d before its rotation to %d",
			expelled.Seq, expelled.Epoch, rotation.Seq, rotation.Epoch, epochBefore, epochBefore+1)
	}
	if mRekeysCoalesced.Value() == coalescedBefore {
		t.Fatal("immediate rotation did not absorb the pending debounced rekey")
	}
}

// TestRekeyAfterCloseSafe: Rekey and Expel on a closed leader fail cleanly
// instead of broadcasting into closed outboxes.
func TestRekeyAfterCloseSafe(t *testing.T) {
	g, err := NewLeader(Config{Name: leaderName, Users: map[string]crypto.Key{}})
	if err != nil {
		t.Fatal(err)
	}
	g.Close()
	if err := g.Rekey(); err != errLeaderClosed {
		t.Fatalf("Rekey after Close: err = %v, want errLeaderClosed", err)
	}
	if err := g.Expel("nobody"); err != errLeaderClosed {
		t.Fatalf("Expel after Close: err = %v, want errLeaderClosed", err)
	}
}
