package group

import (
	"bytes"
	"fmt"
	"maps"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"enclaves/internal/crypto"
	"enclaves/internal/member"
	"enclaves/internal/transport"
	"enclaves/internal/wire"
)

// muxSocket serves one in-memory socket (net.Pipe, unbuffered) as a mux
// connection into the leaders, by stream label, and returns the client side,
// whose reads can be stalled.
func muxSocket(t *testing.T, leaders map[string]*Leader) (*transport.Mux, *deafSocket) {
	t.Helper()
	near, far := net.Pipe()
	go transport.ServeMuxConn(near, transport.MuxConfig{Accept: func(group string, c transport.Conn) { leaders[group].ServeConn(c) }})
	deaf := &deafSocket{Conn: far, closed: make(chan struct{})}
	t.Cleanup(func() { deaf.Close() })
	return transport.NewMuxClient(deaf, transport.MuxConfig{}), deaf
}

// joinOn joins user over a new stream of mx labeled group and waits for its
// key.
func joinOn(t *testing.T, mx *transport.Mux, group, user string) *member.Member {
	t.Helper()
	c, err := mx.Open(group)
	if err != nil {
		t.Fatal(err)
	}
	m, err := member.Join(c, user, leaderName, crypto.DeriveKey(user, leaderName, user+"-pw"))
	if err != nil {
		t.Fatalf("join %s: %v", user, err)
	}
	if err := m.WaitReady(5 * time.Second); err != nil {
		t.Fatalf("join %s: %v", user, err)
	}
	return m
}

// TestStalledSocketEvictsOnlyItsMembers is the slow-consumer property of the
// one writer per socket, over real mux sockets: when carol's peer stops
// reading her socket, that socket's writer parks in a write and stops
// pulling, so carol's outbox overflows and she is evicted — while bob, on
// another socket, keeps getting every multicast, before the eviction and
// after it.
func TestStalledSocketEvictsOnlyItsMembers(t *testing.T) {
	audit := &auditLog{}
	g, err := NewLeader(Config{
		Name:        leaderName,
		Users:       testUsers("alice", "bob", "carol"),
		Rekey:       RekeyPolicy{OnLeave: true},
		OnEvent:     audit.add,
		OutboxLimit: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	live, _ := muxSocket(t, map[string]*Leader{"": g})
	slow, deaf := muxSocket(t, map[string]*Leader{"": g})
	alice := joinOn(t, live, "", "alice")
	bob := joinOn(t, live, "", "bob")
	carol := joinOn(t, slow, "", "carol")
	defer alice.Leave()
	defer bob.Leave()
	waitFor(t, "alice at carol's epoch", func() bool { return alice.Epoch() == carol.Epoch() && bob.Epoch() == carol.Epoch() })

	var got atomic.Int64
	gotAfter := make(chan struct{})
	go func() {
		for {
			ev, err := bob.Next()
			if err != nil {
				return
			}
			if ev.Kind != member.EventData {
				continue
			}
			if bytes.Equal(ev.Data, []byte("after")) {
				close(gotAfter)
				return
			}
			got.Add(1)
		}
	}()

	deaf.stalled.Store(true)
	sent := 0
	waitFor(t, "carol evicted", func() bool {
		if err := alice.SendData([]byte(fmt.Sprintf("m%d", sent))); err != nil {
			t.Fatalf("alice multicast: %v", err)
		}
		sent++
		_, evicted := audit.find(EventEvicted, "carol")
		return evicted
	})
	if ev, _ := audit.find(EventEvicted, "carol"); !strings.Contains(ev.Detail, "overflow") {
		t.Fatalf("carol's eviction detail = %q, want the outbox overflow", ev.Detail)
	}
	waitFor(t, "bob got every multicast sent while carol's socket stalled", func() bool { return got.Load() == int64(sent) })

	// The eviction rotated the key; once alice has bob's epoch, her next
	// multicast reaches him too.
	waitFor(t, "alice and bob on one epoch", func() bool { return alice.Epoch() == bob.Epoch() })
	if err := alice.SendData([]byte("after")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-gotAfter:
	case <-time.After(5 * time.Second):
		t.Fatal("bob stopped getting multicasts after carol's eviction")
	}
}

// TestLockedLeaderStallsNoOtherFrames is the read-side twin of
// TestStalledSocketEvictsOnlyItsMembers. The streams of one socket share its
// reader, which runs each frame's handler; while group A's Leader.mu is
// held, as it is for a whole join or rotation, that reader still handles
// A's acks, which take no group lock, and group B's multicasts.
func TestLockedLeaderStallsNoOtherFrames(t *testing.T) {
	a, err := NewLeader(Config{Name: leaderName, Users: testUsers("alice")})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewLeader(Config{Name: leaderName, Users: testUsers("carol", "dave")})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	mx, _ := muxSocket(t, map[string]*Leader{"A": a, "B": b})
	defer joinOn(t, mx, "A", "alice").Leave()
	carol := joinOn(t, mx, "B", "carol")
	defer carol.Leave()
	dave := joinOn(t, mx, "B", "dave")
	defer dave.Leave()
	waitFor(t, "carol at dave's epoch", func() bool { return carol.Epoch() == dave.Epoch() })
	s := a.reg.get("alice")
	unacked := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.unacked)
	}
	waitFor(t, "alice's admin pipeline idle", func() bool { return unacked() == 0 })

	a.mu.Lock()
	defer a.mu.Unlock()
	// A heartbeat sealed here goes out pre-sealed, as a retransmission
	// does, so neither the writer nor the handler of its ack needs a.mu.
	s.mu.Lock()
	hb, err := s.engine.Send(wire.Heartbeat{})
	if hb != nil {
		s.trackLocked(*hb, time.Now())
	}
	s.mu.Unlock()
	if err != nil || hb == nil {
		t.Fatalf("heartbeat to alice: %v, %v", hb, err)
	}
	if err := s.pushOut(outFrame{env: hb}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "alice's ack handled while A's Leader.mu is held", func() bool { return unacked() == 0 })
	// The reader is past alice's ack, so a handler still waiting on a.mu
	// would hold carol's multicast up behind it.
	if err := carol.SendData([]byte("while A is locked")); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		for {
			ev, err := dave.Next()
			if err != nil || ev.Kind == member.EventData {
				got <- err
				return
			}
		}
	}()
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("dave: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("B's multicast stalled behind A's Leader.mu")
	}
}

// TestGoroutinesPerSession pins the goroutine budget of a session: a leader
// serving n members over one mux socket holds no goroutine per member — the
// socket's reader runs each session's handler and its writer drains each
// outbox — and neither does the client library: each member session is
// driven by the client socket's reader.
func TestGoroutinesPerSession(t *testing.T) {
	const n = 16
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("m%02d", i)
	}
	before := settledGoroutines()
	g, err := NewLeader(Config{Name: leaderName, Users: testUsers(names...)})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	mx, _ := muxSocket(t, map[string]*Leader{"": g})
	for _, u := range names {
		defer joinOn(t, mx, "", u).Leave()
	}
	waitFor(t, "every member admitted", func() bool { return len(g.Members()) == n })
	after := settledGoroutines()

	leader := after["enclaves/internal/group"] - before["enclaves/internal/group"]
	sessions := after["enclaves/internal/member"] - before["enclaves/internal/member"]
	sockets := after["enclaves/internal/transport"] - before["enclaves/internal/transport"]
	t.Logf("%d members: leader %d goroutines, member sessions %d, transport %d", n, leader, sessions, sockets)
	// The socket's read loop counts as the leader's: muxSocket starts it.
	if leader > 2 {
		t.Errorf("leader holds %d goroutines for %d members, want at most 2", leader, n)
	}
	if sessions != 0 {
		t.Errorf("member sessions hold %d goroutines, want none", sessions)
	}
	// Client read loop and writer, server writer.
	if sockets > 3 {
		t.Errorf("one socket holds %d transport goroutines, want at most 3", sockets)
	}
}

// testUsers gives each user the password the join helpers derive.
func testUsers(users ...string) map[string]crypto.Key {
	keys := make(map[string]crypto.Key, len(users))
	for _, u := range users {
		keys[u] = crypto.DeriveKey(u, leaderName, u+"-pw")
	}
	return keys
}

// settledGoroutines is goroutinesByCreator once two snapshots 20 ms apart
// agree, so that goroutines of earlier tests still winding down are not
// counted on one side only.
func settledGoroutines() map[string]int {
	prev := goroutinesByCreator()
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
		cur := goroutinesByCreator()
		if maps.Equal(prev, cur) {
			break
		}
		prev = cur
	}
	return prev
}

// goroutinesByCreator counts live goroutines by the package of the function
// that started them, leaving out those started by tests.
func goroutinesByCreator() map[string]int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	counts := map[string]int{}
	for _, line := range strings.Split(string(buf), "\n") {
		fn, ok := strings.CutPrefix(line, "created by ")
		if !ok {
			continue
		}
		fn, _, _ = strings.Cut(fn, " in goroutine")
		dot := strings.LastIndex(fn, "/")
		pkg, name, _ := strings.Cut(fn[dot+1:], ".")
		if strings.HasPrefix(name, "Test") {
			continue
		}
		counts[fn[:dot+1]+pkg]++
	}
	return counts
}
