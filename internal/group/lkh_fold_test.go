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

// tapConn is a member-side Conn that records the KeyUpdates it delivers and
// the KeySyncReqs it sends. While holding, it keeps the member's acks back
// without blocking the member, so the leader sees its AdminMsg
// unacknowledged while the member goes on reading.
type tapConn struct {
	transport.Conn
	mu      sync.Mutex
	holding bool
	acks    []wire.Envelope
	updates []wire.KeyUpdatePayload
	syncs   int
}

func (c *tapConn) Consume(push transport.Push) {
	c.Conn.Consume(func(e wire.Envelope, ok bool) {
		if ok && e.Type == wire.TypeKeyUpdate {
			if p, err := wire.UnmarshalKeyUpdate(e.Payload); err == nil {
				c.mu.Lock()
				c.updates = append(c.updates, p)
				c.mu.Unlock()
			}
		}
		push(e, ok)
	})
}

func (c *tapConn) Send(e wire.Envelope) error {
	c.mu.Lock()
	if e.Type == wire.TypeKeySyncReq {
		c.syncs++
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

// take returns the KeyUpdates delivered since the last take.
func (c *tapConn) take() []wire.KeyUpdatePayload {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.updates
	c.updates = nil
	return out
}

// TestLKHUpdatesFoldBehindAck: a member with an AdminMsg unacknowledged is
// sent no KeyUpdate while its path rotates again and again; after its ack
// it gets exactly one per rotated node of its path, at the newest version,
// and opens them all. A member with nothing unacknowledged gets each
// rotation's updates as the rotation happens, acking nothing in between.
// An eviction with updates held sends none and leaves no outbox backlog.
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
	// rotate rotates the busy member's whole path and waits for the idle
	// member to install the new group key.
	rotate := func() uint64 {
		t.Helper()
		g.mu.Lock()
		g.tree.MarkDirty(bm.Name())
		g.mu.Unlock()
		if err := g.Rekey(); err != nil {
			t.Fatal(err)
		}
		epoch := g.Epoch()
		waitFor(t, fmt.Sprintf("the idle member at epoch %d", epoch), func() bool { return im.Epoch() == epoch })
		return epoch
	}
	// path is the busy member's internal nodes (leaf keys never rotate),
	// bottom-up, with their current versions.
	path := func() map[uint64]uint64 {
		g.mu.Lock()
		defer g.mu.Unlock()
		entries, ok := g.tree.Path(bm.Name())
		if !ok {
			t.Fatal("the busy member has no path")
		}
		vers := map[uint64]uint64{}
		for _, e := range entries[1:] {
			vers[uint64(e.Node)] = e.Ver
		}
		return vers
	}

	unacked()
	busy.take()
	idle.take()
	idle.hold() // the idle member never has anything to acknowledge
	folded, rejected := mLKHFolded.Value(), bm.Rejected()
	start := bm.Epoch()
	for r := 0; r < rotations; r++ {
		epoch := rotate()
		var roots []uint64
		for _, p := range idle.take() {
			if p.Root {
				roots = append(roots, p.Epoch)
			}
		}
		if len(roots) != 1 || roots[0] != epoch {
			t.Fatalf("rotation %d: the idle member got root updates for epochs %v, want [%d]", r, roots, epoch)
		}
	}
	if got := idle.heldAcks(); got != 0 {
		t.Fatalf("the idle member acknowledged %d AdminMsgs during the rotations, want 0", got)
	}
	if got := busy.take(); len(got) != 0 {
		t.Fatalf("the busy member was sent %d KeyUpdates behind its unacknowledged AdminMsg, want 0", len(got))
	}
	if got := bm.Epoch(); got != start {
		t.Fatalf("the busy member moved to epoch %d behind its unacknowledged AdminMsg, want %d", got, start)
	}
	vers := path()
	if got, want := mLKHFolded.Value()-folded, uint64((rotations-1)*len(vers)); got != want {
		t.Fatalf("%d updates folded, want %d (%d rotations of a %d-node path)", got, want, rotations, len(vers))
	}

	busy.release()
	waitFor(t, "the busy member at the leader's epoch", func() bool { return bm.Epoch() == g.Epoch() })
	got := busy.take()
	if len(got) != len(vers) {
		t.Fatalf("after its ack the busy member got %d KeyUpdates, want one per node of its %d-node path", len(got), len(vers))
	}
	for _, p := range got {
		want, ok := vers[p.Node]
		if !ok || p.Ver != want {
			t.Fatalf("update to node %d at version %d, want one per path node at its current version %v", p.Node, p.Ver, vers)
		}
		delete(vers, p.Node)
	}
	busy.mu.Lock()
	syncs := busy.syncs
	busy.mu.Unlock()
	if syncs != 0 || bm.Rejected() != rejected {
		t.Fatalf("the busy member sent %d KeySyncReqs and rejected %d frames, want 0 and 0", syncs, bm.Rejected()-rejected)
	}

	// Updates held at an eviction go nowhere.
	unacked()
	rotate()
	s.mu.Lock()
	held := len(s.held)
	s.mu.Unlock()
	if held == 0 {
		t.Fatal("no update held for the busy member")
	}
	busy.take()
	idle.release()
	g.mu.Lock()
	g.evictLocked(s, "test")
	g.mu.Unlock()
	busy.release()
	quiesce(t, g, ms[1:])
	waitFor(t, "the outbox gauge back to its quiescent value", func() bool { return mOutboxDepth.Value() == gauge })
	if got := busy.take(); len(got) != 0 {
		t.Fatalf("the evicted member was sent %d KeyUpdates, want 0", len(got))
	}
}
