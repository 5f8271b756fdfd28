package group

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"enclaves/internal/crypto"
	"enclaves/internal/faultnet"
	"enclaves/internal/member"
	"enclaves/internal/metrics"
	"enclaves/internal/replica"
	"enclaves/internal/transport"
	"enclaves/internal/wire"
)

// testLKHGroup is testGroup with the logical key hierarchy enabled.
func testLKHGroup(t *testing.T, rekey RekeyPolicy, arity int, users ...string) (*Leader, *transport.MemNetwork) {
	t.Helper()
	keys := make(map[string]crypto.Key, len(users))
	for _, u := range users {
		keys[u] = crypto.DeriveKey(u, leaderName, u+"-pw")
	}
	g, err := NewLeader(Config{Name: leaderName, Users: keys, Rekey: rekey, LKH: true, LKHArity: arity})
	if err != nil {
		t.Fatal(err)
	}
	net := NewMemNetworkForTest(t)
	l, err := net.Listen(leaderName)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if err := g.Serve(l); err != nil {
			t.Logf("serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		g.Close()
		l.Close()
	})
	return g, net
}

func enableMetrics(t *testing.T) {
	t.Helper()
	prev := metrics.Enabled()
	metrics.Enable()
	t.Cleanup(func() {
		if !prev {
			metrics.Disable()
		}
	})
}

// TestLKHGroupEndToEnd drives the whole LKH path over real connections:
// joins deliver leaf-to-root paths, rotations arrive as KeyBoxes bodies
// with boxes sealed once per subtree, multicast flows under the tree's root key, and an expulsion
// rotates the departed member's path so its last key dies with it.
func TestLKHGroupEndToEnd(t *testing.T) {
	enableMetrics(t)
	users := []string{"alice", "bob", "carol", "dave", "erin", "frank"}
	g, net := testLKHGroup(t, DefaultRekeyPolicy(), 2, users...)

	sealsBefore := counterVal(t, "group_lkh_seals_total")
	updatesBefore := counterVal(t, "member_key_updates_total")

	members := make(map[string]*member.Member, len(users))
	for _, u := range users {
		members[u] = join(t, net, u)
	}
	defer func() {
		for _, m := range members {
			m.Leave()
		}
	}()

	waitFor(t, "all epochs converge", func() bool {
		e := g.Epoch()
		for _, m := range members {
			if m.Epoch() != e {
				return false
			}
		}
		return e > 0
	})

	// Multicast under the root key reaches everyone.
	if err := members["alice"].SendData([]byte("under the tree")); err != nil {
		t.Fatal(err)
	}
	for _, u := range users[1:] {
		ev := waitEvent(t, members[u], "data at "+u, func(e member.Event) bool { return e.Kind == member.EventData })
		if string(ev.Data) != "under the tree" {
			t.Fatalf("%s got %q", u, ev.Data)
		}
	}

	// The on-join rotations were delivered as subtree updates, not flat
	// re-seals: the leader sealed key boxes and members opened them.
	if d := counterVal(t, "group_lkh_seals_total") - sealsBefore; d == 0 {
		t.Error("no LKH seals recorded across six joins")
	}
	if d := counterVal(t, "member_key_updates_total") - updatesBefore; d == 0 {
		t.Error("no member-side key updates applied across six joins")
	}

	// Expel frank: the survivors move to a fresh epoch (frank's whole path
	// rotated) and his last key opens nothing that follows.
	frankKey, frankEpoch := members["frank"].GroupKey()
	epochBefore := g.Epoch()
	if err := g.Expel("frank"); err != nil {
		t.Fatal(err)
	}
	survivors := users[:len(users)-1]
	waitFor(t, "survivors past the expulsion rekey", func() bool {
		e := g.Epoch()
		if e <= epochBefore {
			return false
		}
		for _, u := range survivors {
			if members[u].Epoch() != e {
				return false
			}
		}
		return true
	})
	newKey, _ := g.GroupKey()
	if newKey.Equal(frankKey) {
		t.Fatal("group key unchanged across expulsion")
	}
	if e := g.Epoch(); e <= frankEpoch {
		t.Fatalf("epoch did not advance past expelled member's: %d <= %d", e, frankEpoch)
	}

	// The group is still fully functional on the rotated tree.
	if err := members["bob"].SendData([]byte("after expel")); err != nil {
		t.Fatal(err)
	}
	for _, u := range survivors {
		if u == "bob" {
			continue
		}
		ev := waitEvent(t, members[u], "post-expel data at "+u, func(e member.Event) bool {
			return e.Kind == member.EventData && string(e.Data) == "after expel"
		})
		if ev.Epoch <= frankEpoch {
			t.Fatalf("%s decrypted post-expel data at stale epoch %d", u, ev.Epoch)
		}
	}
	delete(members, "frank")
}

// TestLKHUnopenableBoxRejoins hands members a KeyBoxes whose box does not
// open, as if their paths had diverged from the tree. A plain member ends
// with member.ErrKeyBox; a Session's member ends the same way, and the
// Session rejoins, gets its path as PathKeys and follows the group at the
// current epoch.
func TestLKHUnopenableBoxRejoins(t *testing.T) {
	enableMetrics(t)
	g, net := testLKHGroup(t, DefaultRekeyPolicy(), 2, "alice", "bob", "carol")
	bob := join(t, net, "bob")
	defer bob.Leave()
	sess, err := member.NewSession(member.SessionConfig{
		User: "carol",
		Endpoints: []member.Endpoint{{Leader: leaderName, LongTerm: crypto.DeriveKey("carol", leaderName, "carol-pw"),
			Dial: func() (transport.Conn, error) { return net.Dial(leaderName) }}},
		Backoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	alice := join(t, net, "alice")
	waitFor(t, "everyone keyed at the leader's epoch", func() bool {
		e := g.Epoch()
		return alice.Epoch() == e && bob.Epoch() == e && sess.Epoch() == e
	})

	// unopenable sends user a box sealed, as it claims, under its own leaf
	// key, which it holds, but which does not open.
	unopenable := func(user string) {
		g.mu.Lock()
		defer g.mu.Unlock()
		entries, ok := g.tree.Path(user)
		s := g.reg.get(user)
		if !ok || s == nil {
			t.Fatalf("leader has no path for %s", user)
		}
		g.sendAdminLocked(s, wire.KeyBoxes{Epoch: g.epoch, Boxes: []wire.KeyBox{
			{Node: ^uint64(0), Ver: 1, Under: uint64(entries[0].Node), Epoch: g.epoch, Box: make([]byte, 48)}}})
	}
	unopenable("alice")
	if ev := waitEvent(t, alice, "alice's end", func(e member.Event) bool { return e.Kind == member.EventClosed }); !errors.Is(ev.Err, member.ErrKeyBox) {
		t.Fatalf("alice ended with %v, want member.ErrKeyBox", ev.Err)
	}

	rejoins := counterVal(t, "member_rejoins_total")
	unopenable("carol")
	waitFor(t, "carol's session to rejoin at the leader's epoch", func() bool {
		e := g.Epoch()
		return counterVal(t, "member_rejoins_total") > rejoins && sess.Up() && sess.Epoch() == e &&
			bob.Epoch() == e && slices.Equal(g.Members(), []string{"bob", "carol"})
	})
}

// TestLKHFailoverResume kills an LKH primary and promotes the standby from
// its replicated tree: resuming members get their paths back inside the
// ResumeAck (as PathKeys), the forced post-promotion rotation is a path
// rotation rather than a flat re-key, and multicast flows under the
// post-promotion root key.
func TestLKHFailoverResume(t *testing.T) {
	const n = 6
	enableMetrics(t)

	kr := newReplKey(t)
	names := make([]string, n)
	keys := make(map[string]crypto.Key, n)
	for i := range names {
		names[i] = fmt.Sprintf("user%02d", i)
		keys[names[i]] = crypto.DeriveKey(names[i], leaderName, names[i]+"-pw")
	}
	primary, err := NewLeader(Config{
		Name: leaderName, Users: keys, Rekey: DefaultRekeyPolicy(),
		LKH: true, LKHArity: 2,
		ReplKey: kr, ReplPing: 20 * time.Millisecond,
		Liveness: Liveness{HeartbeatInterval: 150 * time.Millisecond, AckTimeout: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()

	net := NewMemNetworkForTest(t)
	primL, err := net.Listen("primary")
	if err != nil {
		t.Fatal(err)
	}
	go primary.Serve(primL)

	fn := faultnet.NewNetwork(net.Dial, faultnet.Plan{})
	sb, err := replica.NewStandby(replica.StandbyConfig{
		Standby: "standby", Primary: leaderName, Key: kr,
		Dial:    func() (transport.Conn, error) { return fn.Dial("primary") },
		Silence: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Stop()

	sessions := make([]*member.Session, n)
	for i, u := range names {
		s, err := member.NewSession(member.SessionConfig{
			User: u,
			Endpoints: []member.Endpoint{
				{Leader: leaderName, LongTerm: keys[u], Dial: func() (transport.Conn, error) { return fn.Dial("primary") }},
				{Leader: leaderName, LongTerm: keys[u], Dial: func() (transport.Conn, error) { return net.Dial("standby") }},
			},
			Backoff:        10 * time.Millisecond,
			SilenceTimeout: 600 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("session %s: %v", u, err)
		}
		sessions[i] = s
		defer s.Close()
	}
	waitFor(t, "all sessions up on the primary", func() bool {
		e := primary.Epoch()
		for _, s := range sessions {
			if !s.Up() || s.Epoch() != e {
				return false
			}
		}
		return len(primary.Members()) == n
	})
	waitFor(t, "standby synced with membership and tree", func() bool {
		st := sb.State()
		return sb.Synced() && len(st.Members) == n && len(st.Tree) > 0 && st.Epoch == primary.Epoch()
	})

	// Kill inside a heartbeat-quiet gap: wait for a probe round's acks to
	// land in the replica (nonces advance) and then settle, so no ack is in
	// flight when the links sever. An in-flight ack would strand that
	// member's replicated nonce one step stale, fail resume freshness, and
	// force the password rejoin this test asserts cannot happen.
	nonces := func() map[string]crypto.Nonce {
		out := make(map[string]crypto.Nonce, n)
		for u, s := range sb.State().Members {
			out[u] = s.Nonce
		}
		return out
	}
	same := func(a, b map[string]crypto.Nonce) bool {
		if len(a) != len(b) {
			return false
		}
		for u, nn := range a {
			if !b[u].Equal(nn) {
				return false
			}
		}
		return true
	}
	waitFor(t, "a heartbeat round replicated and settled", func() bool {
		s1 := nonces()
		time.Sleep(10 * time.Millisecond)
		s2 := nonces()
		if same(s1, s2) {
			return false // nothing landed in this window; try again
		}
		time.Sleep(10 * time.Millisecond)
		return same(s2, nonces()) // round complete, next one ~an interval away
	})

	epochAtKill := primary.Epoch()
	resumesBefore := counterVal(t, "group_resumes_total")
	joinsBefore := counterVal(t, "group_joins_total")

	primL.Close()
	fn.SeverAll()
	select {
	case <-sb.Dead():
	case <-time.After(10 * time.Second):
		t.Fatal("standby never declared the primary dead")
	}

	st := sb.State()
	sb.Stop()
	if len(st.Tree) < n {
		t.Fatalf("replica carried %d tree nodes, want >= %d (a leaf per member)", len(st.Tree), n)
	}

	// No LKH flags here: promotion derives them from the replicated tree.
	promoted, err := Promote(Config{
		Users: keys, Rekey: DefaultRekeyPolicy(),
		Liveness: Liveness{HeartbeatInterval: 50 * time.Millisecond, AckTimeout: 5 * time.Second},
	}, st)
	if err != nil {
		t.Fatal(err)
	}
	defer promoted.Close()
	promoted.mu.Lock()
	hasTree := promoted.tree != nil
	treeMembers := 0
	if hasTree {
		treeMembers = len(promoted.tree.Members())
	}
	promoted.mu.Unlock()
	if !hasTree {
		t.Fatal("promoted leader did not rebuild the key tree from the replica")
	}
	if treeMembers != n {
		t.Fatalf("promoted tree has %d members, want %d", treeMembers, n)
	}
	if e := promoted.Epoch(); e != epochAtKill+1 {
		t.Fatalf("post-promotion epoch = %d, want exactly one rotation past %d", e, epochAtKill)
	}

	sbL, err := net.Listen("standby")
	if err != nil {
		t.Fatal(err)
	}
	go promoted.Serve(sbL)
	t.Cleanup(func() { sbL.Close() })

	waitFor(t, "sessions converge on the promoted leader", func() bool {
		e := promoted.Epoch()
		for _, s := range sessions {
			if !s.Up() || s.Epoch() != e {
				return false
			}
		}
		return len(promoted.Members()) == n
	})

	if d := counterVal(t, "group_resumes_total") - resumesBefore; d != n {
		t.Errorf("resumes = %d, want %d", d, n)
	}
	if d := counterVal(t, "group_joins_total") - joinsBefore; d != 0 {
		t.Errorf("%d password re-handshakes during failover, want 0", d)
	}

	// Alive under the post-promotion root key.
	if err := sessions[0].SendData([]byte("after lkh failover")); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	got := 0
	waitFor(t, "post-failover multicast", func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, s := range sessions[1:] {
			if ev, ok := s.TryNext(); ok && ev.Kind == member.EventData && string(ev.Data) == "after lkh failover" {
				got++
			}
		}
		return got == n-1
	})
}

// TestLKHJoinerSkippedUpdatesSealedOnce: a rotation's key boxes skip its
// joiner, which gets its whole path as PathKeys instead, so no joiner is
// handed a box it has no key bag for. And a box is sealed once for its
// whole subtree: a manual Rekey of an 8-member binary tree rotates only the
// root, so it costs one seal per child of the root, not one per member,
// while every member opens one box.
func TestLKHJoinerSkippedUpdatesSealedOnce(t *testing.T) {
	withMetrics(t)
	const n = 8
	g, ms := pipeGroup(t, Config{Rekey: DefaultRekeyPolicy(), LKH: true, LKHArity: 2}, n)

	// A leave and a rejoin: the rejoiner is a joiner over a surviving tree.
	last := ms[n-1]
	if err := last.Leave(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the leave to reach the leader", func() bool { return len(g.Members()) == n-1 })
	ms[n-1] = pipeJoin(t, g, last.Name())
	quiesce(t, g, ms)
	for _, m := range ms {
		if r := m.Rejected(); r != 0 {
			t.Errorf("%s rejected %d frames, want 0", m.Name(), r)
		}
	}

	g.mu.Lock()
	children := 0
	for _, r := range g.tree.Records() {
		if r.Parent == g.tree.RootID() && r.ID != g.tree.RootID() {
			children++
		}
	}
	g.mu.Unlock()
	seals, applied := mLKHSeals.Value(), counterVal(t, "member_key_updates_total")
	if err := g.Rekey(); err != nil {
		t.Fatal(err)
	}
	quiesce(t, g, ms)
	if got := mLKHSeals.Value() - seals; got != uint64(children) {
		t.Errorf("a manual rekey sealed %d key boxes, want %d (the root's children)", got, children)
	}
	if got := counterVal(t, "member_key_updates_total") - applied; got != n {
		t.Errorf("members opened %d key boxes, want %d (one each)", got, n)
	}
}
