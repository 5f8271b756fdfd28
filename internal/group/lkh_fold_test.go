package group

import (
	"fmt"
	"sync"
	"testing"

	"enclaves/internal/crypto"
	"enclaves/internal/member"
	"enclaves/internal/transport"
	"enclaves/internal/wire"
)

// tapConn is a member-side Conn that counts the AdminMsgs it delivers and
// any frame of the retired LKH types 25 (KeyUpdate) and 26 (KeySyncReq)
// that crosses it. While holding, it keeps the member's acks back without
// blocking the member, so the leader sees its AdminMsg unacknowledged while
// the member goes on reading.
type tapConn struct {
	transport.Conn
	mu      sync.Mutex
	holding bool
	acks    []wire.Envelope
	admins  int
	retired int
}

// retiredLKHType reports a frame of a retired LKH frame type.
func retiredLKHType(e wire.Envelope) bool { return e.Type == 25 || e.Type == 26 }

func (c *tapConn) Consume(push transport.Push) {
	c.Conn.Consume(func(e wire.Envelope, ok bool) {
		if ok {
			c.mu.Lock()
			if e.Type == wire.TypeAdminMsg {
				c.admins++
			}
			if retiredLKHType(e) {
				c.retired++
			}
			c.mu.Unlock()
		}
		push(e, ok)
	})
}

func (c *tapConn) Send(e wire.Envelope) error {
	c.mu.Lock()
	if retiredLKHType(e) {
		c.retired++
	}
	if e.Type == wire.TypeAck && c.holding {
		c.acks = append(c.acks, e)
		c.mu.Unlock()
		return nil
	}
	c.mu.Unlock()
	return c.Conn.Send(e)
}

func (c *tapConn) hold() {
	c.mu.Lock()
	c.holding = true
	c.mu.Unlock()
}

// release stops holding and sends the held acks, in order.
func (c *tapConn) release() {
	c.mu.Lock()
	acks := c.acks
	c.holding, c.acks = false, nil
	c.mu.Unlock()
	for _, e := range acks {
		c.Conn.Send(e)
	}
}

func (c *tapConn) heldAcks() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.acks)
}

// take returns how many AdminMsgs were delivered since the last take.
func (c *tapConn) take() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.admins
	c.admins = 0
	return n
}

// TestLKHUpdatesFoldBehindAck: a member with an AdminMsg unacknowledged is
// sent nothing while its path rotates again and again, and then its root
// alone; its rotations' key bodies fold in its engine into one with one box
// per node of its path, the newest, each after the box that seals it, and
// after its ack that one AdminMsg brings it to the leader's key, which it
// goes on following. A member with nothing unacknowledged gets one
// AdminMsg per rotation. An eviction with bodies queued sends none and
// leaves no outbox backlog, and no frame of a retired LKH type crosses any
// connection.
func TestLKHUpdatesFoldBehindAck(t *testing.T) {
	withMetrics(t)
	const n, rotations = 6, 4
	cfg := Config{Name: leaderName, Rekey: DefaultRekeyPolicy(), LKH: true, LKHArity: 2, Users: map[string]crypto.Key{}}
	for i := 0; i < n; i++ {
		u := fmt.Sprintf("u%d", i)
		cfg.Users[u] = crypto.DeriveKey(u, leaderName, u+"-pw")
	}
	g, err := NewLeader(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	taps := make([]*tapConn, n)
	ms := make([]*member.Member, n)
	for i := range ms {
		u := fmt.Sprintf("u%d", i)
		a, b := transport.Pipe()
		if err := g.ServeConn(b); err != nil {
			t.Fatal(err)
		}
		taps[i] = &tapConn{Conn: a}
		if ms[i], err = member.Join(taps[i], u, leaderName, cfg.Users[u]); err != nil {
			t.Fatal(err)
		}
	}
	quiesce(t, g, ms)
	gauge := mOutboxDepth.Value()

	busy, idle := taps[0], taps[1]
	bm, im := ms[0], ms[1]
	s := g.reg.get(bm.Name())
	// unacked leaves one AdminMsg to the busy member unacknowledged.
	unacked := func() {
		t.Helper()
		busy.hold()
		g.mu.Lock()
		g.sendAdminLocked(s, wire.Heartbeat{})
		g.mu.Unlock()
		waitFor(t, "the busy member to hold its ack", func() bool { return busy.heldAcks() == 1 })
	}
	// rotate rotates the busy member's whole path, or the root alone, and
	// waits for the idle member to install the new group key.
	rotate := func(path bool) uint64 {
		t.Helper()
		if path {
			g.mu.Lock()
			g.tree.MarkDirty(bm.Name())
			g.mu.Unlock()
		}
		if err := g.Rekey(); err != nil {
			t.Fatal(err)
		}
		epoch := g.Epoch()
		waitFor(t, fmt.Sprintf("the idle member at epoch %d", epoch), func() bool { return im.Epoch() == epoch })
		return epoch
	}
	// pending is the busy member's queued bodies and the boxes they carry.
	pending := func() (int, int) {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.engine.PendingAdmin(), s.engine.PendingBoxes()
	}

	unacked()
	busy.take()
	idle.take()
	folded, keys, rejected := mLKHFolded.Value(), mKeys.Value(), bm.Rejected()
	start := bm.Epoch()
	for r := 0; r < rotations; r++ {
		rotate(r < rotations-1)
		if got := idle.take(); got != 1 {
			t.Fatalf("rotation %d: the idle member got %d AdminMsgs, want 1", r, got)
		}
	}
	if got := busy.take(); got != 0 {
		t.Fatalf("the busy member was sent %d AdminMsgs behind its unacknowledged one, want 0", got)
	}
	if got := bm.Epoch(); got != start {
		t.Fatalf("the busy member moved to epoch %d behind its unacknowledged AdminMsg, want %d", got, start)
	}
	waitFor(t, "every key body in its member's engine", func() bool { return mKeys.Value()-keys == rotations*n })
	g.mu.Lock()
	entries, ok := g.tree.Path(bm.Name())
	g.mu.Unlock()
	if !ok {
		t.Fatal("the busy member has no path")
	}
	nodes := len(entries) - 1 // leaf keys never rotate
	if bodies, boxes := pending(); bodies != 1 || boxes != nodes {
		t.Fatalf("the busy member has %d bodies with %d boxes queued, want 1 with one per node of its %d-node path", bodies, boxes, nodes)
	}
	if got, want := mLKHFolded.Value()-folded, uint64((rotations-2)*nodes+1); got != want {
		t.Fatalf("%d boxes folded, want %d (%d rotations of a %d-node path, then the root's)", got, want, rotations-1, nodes)
	}

	busy.release()
	waitFor(t, "the busy member at the leader's epoch", func() bool { return bm.Epoch() == g.Epoch() })
	if got := busy.take(); got != 1 {
		t.Fatalf("after its ack the busy member got %d AdminMsgs, want 1 folded", got)
	}
	// The folded body left the member the newest key of every path node: the
	// next rotation's boxes open under them.
	epoch := rotate(true)
	waitFor(t, "the busy member to follow the next rotation", func() bool { return bm.Epoch() == epoch })
	if bm.Rejected() != rejected {
		t.Fatalf("the busy member rejected %d frames, want 0", bm.Rejected()-rejected)
	}

	// Bodies queued at an eviction go nowhere.
	unacked()
	rotate(true)
	waitFor(t, "a key body queued for the busy member", func() bool { _, boxes := pending(); return boxes > 0 })
	busy.take()
	g.mu.Lock()
	g.evictLocked(s, "test")
	g.mu.Unlock()
	busy.release()
	quiesce(t, g, ms[1:])
	waitFor(t, "the outbox gauge back to its quiescent value", func() bool { return mOutboxDepth.Value() == gauge })
	if got := busy.take(); got != 0 {
		t.Fatalf("the evicted member was sent %d AdminMsgs, want 0", got)
	}
	for i, c := range taps {
		c.mu.Lock()
		retired := c.retired
		c.mu.Unlock()
		if retired != 0 {
			t.Errorf("u%d's connection carried %d frames of the retired types 25 and 26", i, retired)
		}
	}
}
