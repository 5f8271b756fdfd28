package group

// One AdminMsg per membership change: under a rotate-now flat policy the
// rotation's NewGroupKey carries the join or leave it answers, so a change
// costs each member already in the group one ack-gated message, and a
// member is never on the new key while a peer still waits for it behind the
// notice's acknowledgment.

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"enclaves/internal/crypto"
	"enclaves/internal/member"
	"enclaves/internal/transport"
	"enclaves/internal/wire"
)

// pipeJoin attaches user to g over an in-memory pipe, with no listener.
func pipeJoin(t *testing.T, g *Leader, user string) *member.Member {
	t.Helper()
	a, b := transport.Pipe()
	if err := g.ServeConn(b); err != nil {
		t.Fatal(err)
	}
	m, err := member.Join(a, user, leaderName, crypto.DeriveKey(user, leaderName, user+"-pw"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// pipeGroup starts a leader with users u0..u(n-1) registered and all of them
// joined over pipes.
func pipeGroup(t *testing.T, cfg Config, n int) (*Leader, []*member.Member) {
	t.Helper()
	cfg.Name = leaderName
	cfg.Users = make(map[string]crypto.Key, n)
	for i := 0; i < n; i++ {
		u := fmt.Sprintf("u%d", i)
		cfg.Users[u] = crypto.DeriveKey(u, leaderName, u+"-pw")
	}
	g, err := NewLeader(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	ms := make([]*member.Member, n)
	for i := range ms {
		ms[i] = pipeJoin(t, g, fmt.Sprintf("u%d", i))
	}
	quiesce(t, g, ms)
	return g, ms
}

// quiesce waits until every member agrees with the leader and the admin
// pipeline is idle: each member's view and epoch are the leader's, and no
// AdminMsg is queued or awaiting its acknowledgment.
func quiesce(t *testing.T, g *Leader, ms []*member.Member) {
	t.Helper()
	waitFor(t, "group to quiesce", func() bool {
		epoch := g.Epoch()
		view := g.Members()
		for _, m := range ms {
			if m.Epoch() != epoch || !reflect.DeepEqual(m.Members(), view) {
				return false
			}
		}
		for _, s := range g.reg.appendAll(nil, "") {
			s.mu.Lock()
			busy := len(s.unacked) > 0 || s.out.Len() > 0
			s.mu.Unlock()
			if busy {
				return false
			}
		}
		return true
	})
}

// adminEvents drains m's queued events, keeping those a group-management
// message produced.
func adminEvents(m *member.Member) []member.Event {
	var out []member.Event
	for {
		ev, ok := m.TryNext()
		if !ok {
			return out
		}
		if ev.Seq != 0 {
			out = append(out, ev)
		}
	}
}

// TestAdminMsgsPerChange counts the AdminMsgs one leave and one join cost a
// 16-member group. Rotating at once, the key body carries the change, a
// NewGroupKey or under LKH a KeyBoxes: n-1 for a leave, n+1 for a join (the
// joiner's keys and its MemberList). With the policy off the standalone
// notices cost the same. Serial changes never fold (each body finds the pipeline
// idle), so the counts are the same with notice and key folding. Every message is acknowledged
// exactly once, and after each change every member's view and epoch are the
// leader's.
func TestAdminMsgsPerChange(t *testing.T) {
	withMetrics(t)
	const n = 16
	for _, tc := range []struct {
		name        string
		cfg         Config
		leave, join uint64
	}{
		{"flat", Config{Rekey: DefaultRekeyPolicy()}, n - 1, n + 1},
		{"lkh", Config{Rekey: DefaultRekeyPolicy(), LKH: true}, n - 1, n + 1},
		{"no rekey", Config{}, n - 1, n + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, ms := pipeGroup(t, tc.cfg, n)
			last := ms[n-1]
			observer := ms[0]
			adminEvents(observer)

			sent, acked := mAdminSent.Value(), mAdminAcked.Value()
			epoch := g.Epoch()
			if err := last.Leave(); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "the leave to reach the leader", func() bool { return len(g.Members()) == n-1 })
			quiesce(t, g, ms[:n-1])
			if got, acks := mAdminSent.Value()-sent, mAdminAcked.Value()-acked; got != tc.leave || acks != got {
				t.Errorf("a leave cost %d AdminMsgs and %d acks, want %d of each", got, acks, tc.leave)
			}
			if tc.name == "flat" {
				// One message: who left, then the key, under one sequence number.
				evs := adminEvents(observer)
				if len(evs) != 2 || evs[0].Kind != member.EventLeft || evs[0].Name != last.Name() ||
					evs[1].Kind != member.EventRekey || evs[1].Epoch != epoch+1 || evs[0].Seq != evs[1].Seq {
					t.Errorf("observer saw %v for the leave, want Left then Rekey(%d) with one seq", evs, epoch+1)
				}
			}

			sent, acked = mAdminSent.Value(), mAdminAcked.Value()
			epoch = g.Epoch()
			ms[n-1] = pipeJoin(t, g, last.Name())
			quiesce(t, g, ms)
			if got, acks := mAdminSent.Value()-sent, mAdminAcked.Value()-acked; got != tc.join || acks != got {
				t.Errorf("a join cost %d AdminMsgs and %d acks, want %d of each", got, acks, tc.join)
			}
			if tc.name == "flat" {
				evs := adminEvents(observer)
				if len(evs) != 2 || evs[0].Kind != member.EventJoined || evs[0].Name != last.Name() ||
					evs[1].Kind != member.EventRekey || evs[1].Epoch != epoch+1 || evs[0].Seq != evs[1].Seq {
					t.Errorf("observer saw %v for the join, want Joined then Rekey(%d) with one seq", evs, epoch+1)
				}
				// The joiner's copy of the key names nobody: its view is the
				// MemberList's, and it hears of its own join once.
				evs = adminEvents(ms[n-1])
				if len(evs) != 2 || evs[0].Kind != member.EventRekey || evs[1].Kind != member.EventJoined ||
					evs[1].Name != last.Name() || evs[0].Seq == evs[1].Seq {
					t.Errorf("joiner saw %v, want Rekey then its own Joined as two messages", evs)
				}
			}
		})
	}
}

// ackGate holds acknowledgments from the moment hold is set until release
// is closed: a member behind it is slow to answer, so everything the leader
// sends it meanwhile queues behind one outstanding AdminMsg.
type ackGate struct {
	hold    atomic.Bool
	release chan struct{}
}

// holdAcksConn is a member-side Conn whose acknowledgments pass its gate.
type holdAcksConn struct {
	transport.Conn
	gate *ackGate
}

func (c holdAcksConn) Send(e wire.Envelope) error {
	if e.Type == wire.TypeAck && c.gate.hold.Load() {
		<-c.gate.release
	}
	return c.Conn.Send(e)
}

// TestJoinStormFoldsNotices: with no rotation on join a join reaches the
// members already in the group as a notice, and notices queued behind an
// unacknowledged AdminMsg fold into one. 64
// joiners, 16 at a time, reach survivors that hold their acks until the
// storm is over: each survivor gets the first join alone and the other 63
// in one folded message, two AdminMsgs where one per join cost 64, and
// still sees one Joined event per joiner, in the leader's order.
func TestJoinStormFoldsNotices(t *testing.T) {
	withMetrics(t)
	const survivors, joiners, wave = 4, 64, 16
	var mu sync.Mutex
	var order []string // joins in the leader's order
	cfg := Config{Name: leaderName, Rekey: RekeyPolicy{OnLeave: true}, LKH: true, Users: map[string]crypto.Key{},
		OnEvent: func(e Event) {
			if e.Kind == EventJoined {
				mu.Lock()
				order = append(order, e.User)
				mu.Unlock()
			}
		}}
	for i := 0; i < survivors+joiners; i++ {
		u := fmt.Sprintf("u%d", i)
		cfg.Users[u] = crypto.DeriveKey(u, leaderName, u+"-pw")
	}
	g, err := NewLeader(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	gate := &ackGate{release: make(chan struct{})}
	join := func(u string, hold bool) (*member.Member, error) {
		a, b := transport.Pipe()
		if err := g.ServeConn(b); err != nil {
			return nil, err
		}
		if hold {
			a = holdAcksConn{Conn: a, gate: gate}
		}
		return member.Join(a, u, leaderName, cfg.Users[u])
	}
	ms := make([]*member.Member, survivors)
	for i := range ms {
		if ms[i], err = join(fmt.Sprintf("u%d", i), true); err != nil {
			t.Fatal(err)
		}
	}
	quiesce(t, g, ms)
	gate.hold.Store(true)
	for _, m := range ms {
		adminEvents(m)
	}
	notices, folded := mNotices.Value(), mNoticesFolded.Value()

	all := ms
	for w := 0; w < joiners; w += wave {
		joined := make([]*member.Member, wave)
		var wg sync.WaitGroup
		for i := range joined {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				m, err := join(fmt.Sprintf("u%d", survivors+w+i), false)
				if err != nil {
					t.Error(err)
				}
				joined[i] = m
			}(i)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		all = append(all, joined...)
	}
	// Every notice is in an engine before the survivors answer: join k is
	// announced to the survivors and the k joiners before it.
	waitFor(t, "the storm's notices to reach the engines", func() bool {
		return mNotices.Value()-notices == survivors*joiners+joiners*(joiners-1)/2
	})
	close(gate.release)
	quiesce(t, g, all)

	waitFor(t, "every join's audit event", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(order) == survivors+joiners
	})
	for _, m := range ms {
		seqs := map[uint64]bool{}
		var names []string
		for _, ev := range adminEvents(m) {
			if ev.Kind == member.EventJoined {
				seqs[ev.Seq] = true
				names = append(names, ev.Name)
			}
		}
		if len(seqs) != 2 {
			t.Errorf("%s got %d joins in %d AdminMsgs, want 2", m.Name(), len(names), len(seqs))
		}
		if want := order[survivors:]; !reflect.DeepEqual(names, want) {
			t.Errorf("%s saw joins %v, want the leader's order %v", m.Name(), names, want)
		}
	}
	if n, f := mNotices.Value()-notices, mNoticesFolded.Value()-folded; f < survivors*(joiners-2) || f >= n {
		t.Errorf("%d of %d notices folded, want at least %d", f, n, survivors*(joiners-2))
	}
}

// TestRekeyWindowClosed: the first survivor to hold a rotation's key
// multicasts under it at once, and every other survivor must deliver that
// frame. When the key queued behind the acknowledgment of a separate notice,
// the fast survivor's frame reached peers still on the old key and was
// dropped by design. With the change and the key in one message, and no
// body sealed before the change has fanned out (sealFrame), the key is in
// every survivor's outbox before anyone can have sealed under it. Under LKH
// the KeyBoxes carry the change, are queued with the rotation and are
// sealed behind the same wait, so the same holds for the new root key.
func TestRekeyWindowClosed(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"flat", Config{Rekey: DefaultRekeyPolicy()}},
		{"lkh", Config{Rekey: DefaultRekeyPolicy(), LKH: true, LKHArity: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) { testRekeyWindowClosed(t, tc.cfg) })
	}
}

func testRekeyWindowClosed(t *testing.T, cfg Config) {
	const (
		survivors = 4
		rounds    = 200
	)
	g, ms := pipeGroup(t, cfg, survivors+1)

	var (
		claimed atomic.Uint64 // highest epoch some survivor has multicast under
		mu      sync.Mutex
		got     = make(map[uint64]int) // epoch -> survivors that delivered its multicast
		wg      sync.WaitGroup
	)
	claimed.Store(g.Epoch())
	for _, m := range ms[:survivors] {
		adminEvents(m)
		wg.Add(1)
		go func(m *member.Member) {
			defer wg.Done()
			for {
				ev, err := m.Next()
				if err != nil || ev.Kind == member.EventClosed {
					return
				}
				switch ev.Kind {
				case member.EventRekey:
					if prev := claimed.Load(); ev.Epoch > prev && claimed.CompareAndSwap(prev, ev.Epoch) {
						if err := m.SendData(binary.BigEndian.AppendUint64(nil, ev.Epoch)); err != nil {
							t.Errorf("%s: send under epoch %d: %v", m.Name(), ev.Epoch, err)
						}
					}
				case member.EventData:
					mu.Lock()
					got[binary.BigEndian.Uint64(ev.Data)]++
					mu.Unlock()
				}
			}
		}(m)
	}
	// delivered waits for the rotation to epoch and for its multicast to
	// reach every survivor but the one that sent it.
	delivered := func(epoch uint64, what string) {
		t.Helper()
		quiesce(t, g, ms)
		waitFor(t, fmt.Sprintf("round %s: epoch %d's first multicast at every other survivor", what, epoch), func() bool {
			mu.Lock()
			defer mu.Unlock()
			return claimed.Load() == epoch && got[epoch] == survivors-1
		})
	}

	churner := ms[survivors]
	for r := 0; r < rounds; r++ {
		epoch := g.Epoch()
		if err := churner.Leave(); err != nil {
			t.Fatal(err)
		}
		ms = ms[:survivors]
		waitFor(t, "the leave to reach the leader", func() bool { return len(g.Members()) == survivors })
		delivered(epoch+1, fmt.Sprintf("%d leave", r))

		churner = pipeJoin(t, g, churner.Name())
		ms = append(ms, churner)
		delivered(epoch+2, fmt.Sprintf("%d join", r))
	}
	claimed.Store(^uint64(0)) // the teardown's rotations are nobody's to multicast under
	for _, m := range ms {
		m.Leave()
	}
	wg.Wait()
}
