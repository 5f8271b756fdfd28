package group

import (
	"sync"
	"testing"
	"time"

	"enclaves/internal/crypto"
	"enclaves/internal/member"
	"enclaves/internal/metrics"
	"enclaves/internal/transport"
	"enclaves/internal/wire"
)

// withMetrics enables collection for one test, restoring the prior state.
func withMetrics(t *testing.T) {
	t.Helper()
	prev := metrics.Enabled()
	metrics.Enable()
	t.Cleanup(func() {
		if !prev {
			metrics.Disable()
		}
	})
}

// dropAdminConn wraps a member-side Conn and, once armed, silently drops
// the next n AdminMsg deliveries — the deterministic form of a faultnet
// Drop hitting exactly the first delivery of a broadcast (the probabilistic
// faultnet version runs in the chaos soak).
type dropAdminConn struct {
	transport.Conn
	mu   sync.Mutex
	drop int
}

func (c *dropAdminConn) arm(n int) {
	c.mu.Lock()
	c.drop = n
	c.mu.Unlock()
}

// Consume hands the member every frame but the AdminMsgs armed to drop.
func (c *dropAdminConn) Consume(push transport.Push) {
	c.Conn.Consume(func(e wire.Envelope, ok bool) {
		c.mu.Lock()
		drop := ok && e.Type == wire.TypeAdminMsg && c.drop > 0
		if drop {
			c.drop--
		}
		c.mu.Unlock()
		if !drop {
			push(e, ok)
		}
	})
}

// TestBackToBackBroadcastDroppedFirstDelivery: two admin broadcasts are
// issued back to back — the second queues behind the unacknowledged first —
// and the first's delivery is lost. Retransmit tracking must keep the first
// frame (not let the second clobber it), resend it until acknowledged, and
// then release the second; both members converge to the final epoch. The
// retransmit counter proves recovery went through the liveness layer.
func TestBackToBackBroadcastDroppedFirstDelivery(t *testing.T) {
	withMetrics(t)

	keys := map[string]crypto.Key{
		"alice": crypto.DeriveKey("alice", leaderName, "pw"),
	}
	g, err := NewLeader(Config{
		Name:  leaderName,
		Users: keys,
		Liveness: Liveness{
			AckTimeout:         2 * time.Second,
			RetransmitInterval: 20 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	net := NewMemNetworkForTest(t)
	l, err := net.Listen(leaderName)
	if err != nil {
		t.Fatal(err)
	}
	go g.Serve(l)

	raw, err := net.Dial(leaderName)
	if err != nil {
		t.Fatal(err)
	}
	lossy := &dropAdminConn{Conn: raw}
	alice, err := member.Join(lossy, "alice", leaderName, keys["alice"])
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Leave()
	go func() {
		for {
			if _, err := alice.Next(); err != nil {
				return
			}
		}
	}()
	waitFor(t, "alice joined and keyed", func() bool {
		return alice.Epoch() == g.Epoch() && g.Epoch() > 0
	})

	retransmitsBefore := metrics.Default.Snapshot()["group_retransmits_total"].(uint64)

	// Lose the next AdminMsg delivery, then fire two broadcasts back to
	// back: the first (a rekey) is sealed and lost in flight, the second
	// queues behind it in the ack-gated pipeline.
	lossy.arm(1)
	if err := g.Rekey(); err != nil {
		t.Fatal(err)
	}
	if err := g.Rekey(); err != nil {
		t.Fatal(err)
	}
	want := g.Epoch()

	// Recovery: the retransmitted first frame is acknowledged, the second
	// drains, and the member reaches the final epoch.
	waitFor(t, "alice converges past the dropped broadcast", func() bool {
		return alice.Epoch() == want
	})

	retransmits := metrics.Default.Snapshot()["group_retransmits_total"].(uint64) - retransmitsBefore
	if retransmits == 0 {
		t.Fatal("recovery happened without any recorded retransmission")
	}
	if ms := g.Members(); len(ms) != 1 || ms[0] != "alice" {
		t.Fatalf("member wrongly evicted during recovery; members = %v", ms)
	}
}

// TestFailedEnqueueLeavesLivenessStateUntouched covers the overflow and
// closed-outbox paths of the admin send: when the enqueue fails, no
// liveness state (heartbeat pacing, retransmit FIFO) may record an AdminMsg
// that never entered the pipeline.
func TestFailedEnqueueLeavesLivenessStateUntouched(t *testing.T) {
	g, err := NewLeader(Config{Name: leaderName, Users: map[string]crypto.Key{}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	// Not registered in the member registry, so the overflow eviction is a
	// no-op and
	// the state inspection below sees exactly what the send path did.
	s := newTestConn("ghost", 1)
	if err := s.pushOut(outFrame{body: wire.Heartbeat{}}); err != nil {
		t.Fatal(err)
	}

	g.mu.Lock()
	g.sendAdminLocked(s, wire.Heartbeat{}) // ErrFull
	g.mu.Unlock()
	if !s.lastAdmin.IsZero() {
		t.Fatal("full outbox: lastAdmin advanced for an AdminMsg that was never enqueued")
	}
	if len(s.unacked) != 0 {
		t.Fatalf("full outbox: %d unacked entries recorded", len(s.unacked))
	}

	s.out.Close()
	g.mu.Lock()
	g.sendAdminLocked(s, wire.Heartbeat{}) // ErrClosed
	g.mu.Unlock()
	if !s.lastAdmin.IsZero() {
		t.Fatal("closed outbox: lastAdmin advanced for an AdminMsg that was never enqueued")
	}

	// The success path does advance the pacing stamp.
	s2 := newTestConn("ghost2", 4)
	g.mu.Lock()
	g.sendAdminLocked(s2, wire.Heartbeat{})
	g.mu.Unlock()
	if s2.lastAdmin.IsZero() {
		t.Fatal("successful enqueue did not advance lastAdmin")
	}
}

// TestRetransmitPacingOnlyAdvancesOnEnqueue: when the outbox is full at
// retransmit time, the pacing stamp must not advance — the next tick
// retries instead of silently skipping a retransmission interval.
func TestRetransmitPacingOnlyAdvancesOnEnqueue(t *testing.T) {
	g, err := NewLeader(Config{
		Name:  leaderName,
		Users: map[string]crypto.Key{},
		Liveness: Liveness{
			AckTimeout:         time.Hour, // never expire during the test
			RetransmitInterval: time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	now := time.Now()
	sent := now.Add(-time.Second)
	env := wire.Envelope{Type: wire.TypeAdminMsg, Sender: leaderName, Receiver: "ghost"}
	s := newTestConn("ghost", 1)
	s.unacked = []unackedAdmin{{env: env, seq: 1, sentAt: sent, resentAt: sent}}
	if err := s.pushOut(outFrame{body: wire.Heartbeat{}}); err != nil { // fill
		t.Fatal(err)
	}
	g.mu.Lock()
	g.reg.insert(s)
	g.mu.Unlock()

	g.livenessTick(now)
	s.mu.Lock()
	resentAt := s.unacked[0].resentAt
	s.mu.Unlock()
	if !resentAt.Equal(sent) {
		t.Fatal("full outbox: resentAt advanced without an enqueued retransmission")
	}

	// Drain the outbox; the next tick retransmits and advances the stamp.
	if _, ok := s.out.TryPop(); !ok {
		t.Fatal("outbox unexpectedly empty")
	}
	g.livenessTick(now)
	s.mu.Lock()
	resentAt = s.unacked[0].resentAt
	frames := s.out.Len()
	s.mu.Unlock()
	if !resentAt.Equal(now) {
		t.Fatal("drained outbox: retransmission did not advance resentAt")
	}
	if frames != 1 {
		t.Fatalf("outbox holds %d frames, want the 1 retransmission", frames)
	}

	g.mu.Lock()
	g.reg.take("ghost")
	g.mu.Unlock()
}
