package group

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"enclaves/internal/core"
	"enclaves/internal/crypto"
	"enclaves/internal/member"
	"enclaves/internal/transport"
	"enclaves/internal/wire"
)

// auditLog collects audit events for assertions.
type auditLog struct {
	mu     sync.Mutex
	events []Event
}

func (a *auditLog) add(e Event) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.events = append(a.events, e)
}

func (a *auditLog) find(kind EventKind, user string) (Event, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, e := range a.events {
		if e.Kind == kind && e.User == user {
			return e, true
		}
	}
	return Event{}, false
}

// silentMember completes the three-message join with the core engine, then
// never acknowledges anything again — the runtime face of a member that
// crashed right after authenticating. It returns the conn for observing
// what the leader keeps sending.
func silentMember(t *testing.T, net *transport.MemNetwork, leader, user string, key crypto.Key) transport.Conn {
	t.Helper()
	conn, err := net.Dial(leader)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := core.NewMemberSession(user, leader, key)
	if err != nil {
		t.Fatal(err)
	}
	initReq, err := engine.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(initReq); err != nil {
		t.Fatal(err)
	}
	dist, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	ev, err := engine.Handle(dist)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(*ev.Reply); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestAckDeadlineEvictsSilentMember: a member that authenticates and then
// goes silent is expelled within the ack deadline, with the on-leave rekey
// and an EventEvicted audit record — the liveness layer closing the
// forward-secrecy hole a silently dead member would otherwise leave open.
func TestAckDeadlineEvictsSilentMember(t *testing.T) {

	keys := map[string]crypto.Key{
		"alice": crypto.DeriveKey("alice", leaderName, "pw"),
		"dead":  crypto.DeriveKey("dead", leaderName, "pw"),
	}
	audit := &auditLog{}
	g, err := NewLeader(Config{
		Name:    leaderName,
		Users:   keys,
		Rekey:   RekeyPolicy{OnLeave: true},
		OnEvent: audit.add,
		Liveness: Liveness{
			HeartbeatInterval: 20 * time.Millisecond,
			AckTimeout:        100 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	net := transport.NewMemNetwork()
	defer net.Close()
	l, err := net.Listen(leaderName)
	if err != nil {
		t.Fatal(err)
	}
	go g.Serve(l)

	// A healthy member that keeps acking (it must survive).
	connA, err := net.Dial(leaderName)
	if err != nil {
		t.Fatal(err)
	}
	alice, err := member.Join(connA, "alice", leaderName, keys["alice"])
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

	deadConn := silentMember(t, net, leaderName, "dead", keys["dead"])
	waitFor(t, "dead member accepted", func() bool {
		return len(g.Members()) == 2
	})
	epochBefore := g.Epoch()

	// While unacknowledged, the outstanding AdminMsg is retransmitted;
	// observe at least one identical duplicate on the dead member's conn.
	var frames []wire.Envelope
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		for {
			e, err := deadConn.Recv()
			if err != nil {
				return
			}
			frames = append(frames, e)
		}
	}()

	waitFor(t, "eviction of the dead member", func() bool {
		ms := g.Members()
		return len(ms) == 1 && ms[0] == "alice"
	})
	// The audit record is emitted after the registry drops the member, so
	// it can trail the membership change observed above.
	var ev Event
	waitFor(t, "EventEvicted audit record for the dead member", func() bool {
		var ok bool
		ev, ok = audit.find(EventEvicted, "dead")
		return ok
	})
	if !strings.Contains(ev.Detail, "ack deadline") {
		t.Fatalf("eviction detail = %q, want ack deadline cause", ev.Detail)
	}
	waitFor(t, "on-leave rekey", func() bool {
		return g.Epoch() > epochBefore
	})
	// The healthy member converges to the post-eviction epoch and view.
	waitFor(t, "alice convergence", func() bool {
		ms := alice.Members()
		return alice.Epoch() == g.Epoch() && len(ms) == 1 && ms[0] == "alice"
	})

	// Eviction closed the dead conn, so the observer goroutine exits; wait
	// for it before reading frames.
	<-recvDone
	retransmits := 0
	for i := 0; i < len(frames); i++ {
		for j := i + 1; j < len(frames); j++ {
			if frames[i].Type == wire.TypeAdminMsg && frames[j].Type == wire.TypeAdminMsg &&
				bytes.Equal(frames[i].Payload, frames[j].Payload) {
				retransmits++
			}
		}
	}
	if retransmits == 0 {
		t.Fatalf("no retransmission of the outstanding AdminMsg observed in %d frames", len(frames))
	}
}

// TestHeartbeatKeepsIdleMemberAlive: an idle but responsive member is
// probed, acks, and stays in the group well past many ack deadlines.
func TestHeartbeatKeepsIdleMemberAlive(t *testing.T) {

	keys := map[string]crypto.Key{"alice": crypto.DeriveKey("alice", leaderName, "pw")}
	g, err := NewLeader(Config{
		Name:  leaderName,
		Users: keys,
		Rekey: DefaultRekeyPolicy(),
		Liveness: Liveness{
			HeartbeatInterval: 15 * time.Millisecond,
			AckTimeout:        60 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	net := transport.NewMemNetwork()
	defer net.Close()
	l, err := net.Listen(leaderName)
	if err != nil {
		t.Fatal(err)
	}
	go g.Serve(l)

	conn, err := net.Dial(leaderName)
	if err != nil {
		t.Fatal(err)
	}
	alice, err := member.Join(conn, "alice", leaderName, keys["alice"])
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

	// Idle for 5x the ack deadline: only heartbeats flow, and the member
	// must still be there, with zero rejected frames.
	time.Sleep(300 * time.Millisecond)
	if ms := g.Members(); len(ms) != 1 || ms[0] != "alice" {
		t.Fatalf("idle member evicted; members = %v", ms)
	}
	if r := alice.Rejected(); r != 0 {
		t.Fatalf("heartbeats caused %d rejected frames", r)
	}
}

// stallConn wraps a leader-side Conn that carries a budget of frames and
// then parks whoever sends the next one — Send's caller, or the writer that
// pulls the member's outbox — simulating a consumer whose transport has
// stopped draining (full TCP window, wedged peer) without tearing the
// connection down.
type stallConn struct {
	transport.Conn
	mu      sync.Mutex
	budget  int
	stalled chan struct{} // closed on teardown to release blocked senders
}

func (c *stallConn) Send(e wire.Envelope) error {
	c.mu.Lock()
	ok := c.budget > 0
	if ok {
		c.budget--
	}
	c.mu.Unlock()
	if !ok {
		<-c.stalled
		return transport.ErrClosed
	}
	return c.Conn.Send(e)
}

// The batch path must route through the budgeted Send, or the embedded
// conn's implementation would bypass the stall entirely.
func (c *stallConn) SendBatch(batch []transport.Outgoing) error { return transport.SendEach(c, batch) }

// Attach spends the budget on what the writer pulls; past it the writer
// parks, as it would in a write to a full socket, and pulls no more.
func (c *stallConn) Attach(pull transport.Pull) {
	c.Conn.Attach(func(buf []transport.Outgoing) []transport.Outgoing {
		buf = pull(buf)
		c.mu.Lock()
		n := min(len(buf), max(c.budget, 0))
		c.budget -= n
		c.mu.Unlock()
		if n < len(buf) {
			<-c.stalled
			return buf[:0]
		}
		return buf
	})
}

type stallListener struct {
	transport.Listener
	mu       sync.Mutex
	budgets  []int // per-accepted-conn send budgets; -1 = unlimited
	accepted int
	stalled  chan struct{}
}

func (l *stallListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	budget := -1
	if l.accepted < len(l.budgets) {
		budget = l.budgets[l.accepted]
	}
	l.accepted++
	l.mu.Unlock()
	if budget < 0 {
		return c, nil
	}
	return &stallConn{Conn: c, budget: budget, stalled: l.stalled}, nil
}

// TestSlowConsumerOverflowEvicts: a member whose transport stops draining
// fills its bounded outbox under multicast load and is evicted, instead of
// growing the leader's memory without limit.
func TestSlowConsumerOverflowEvicts(t *testing.T) {

	keys := map[string]crypto.Key{
		"alice": crypto.DeriveKey("alice", leaderName, "pw"),
		"bob":   crypto.DeriveKey("bob", leaderName, "pw"),
	}
	audit := &auditLog{}
	g, err := NewLeader(Config{
		Name:        leaderName,
		Users:       keys,
		Rekey:       RekeyPolicy{OnLeave: true},
		OnEvent:     audit.add,
		OutboxLimit: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	net := transport.NewMemNetwork()
	defer net.Close()
	inner, err := net.Listen(leaderName)
	if err != nil {
		t.Fatal(err)
	}
	stalled := make(chan struct{})
	defer close(stalled)
	// First accepted conn (alice) is unlimited; second (bob) may send the
	// handshake reply plus one admin frame, then stalls.
	l := &stallListener{Listener: inner, budgets: []int{-1, 2}, stalled: stalled}
	go g.Serve(l)

	connA, err := net.Dial(leaderName)
	if err != nil {
		t.Fatal(err)
	}
	alice, err := member.Join(connA, "alice", leaderName, keys["alice"])
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

	connB, err := net.Dial(leaderName)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := member.Join(connB, "bob", leaderName, keys["bob"])
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			if _, err := bob.Next(); err != nil {
				return
			}
		}
	}()
	waitFor(t, "bob accepted", func() bool {
		return len(g.Members()) == 2
	})

	// Multicast load: every frame is relayed into bob's stalled outbox.
	waitFor(t, "bob evicted for overflow", func() bool {
		if err := alice.SendData([]byte("payload")); err != nil {
			return false
		}
		_, evicted := audit.find(EventEvicted, "bob")
		return evicted
	})
	ev, _ := audit.find(EventEvicted, "bob")
	if !strings.Contains(ev.Detail, "overflow") {
		t.Fatalf("eviction detail = %q, want overflow cause", ev.Detail)
	}
	waitFor(t, "membership shrank to alice", func() bool {
		ms := g.Members()
		return len(ms) == 1 && ms[0] == "alice"
	})
}
