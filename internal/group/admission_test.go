package group

import (
	"sync"
	"testing"
	"time"

	"enclaves/internal/crypto"
	"enclaves/internal/member"
	"enclaves/internal/replica"
	"enclaves/internal/transport"
	"enclaves/internal/wire"
)

// replTap subscribes to a leader's replication stream the way a standby
// does and keeps every delta it carries, in stream order.
type replTap struct {
	mu     sync.Mutex
	deltas []wire.ReplDeltaPayload
}

func (r *replTap) snapshot() []wire.ReplDeltaPayload {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]wire.ReplDeltaPayload(nil), r.deltas...)
}

func (r *replTap) memberUps(user string) int {
	n := 0
	for _, d := range r.snapshot() {
		if d.Kind == wire.ReplMemberUp && d.User == user {
			n++
		}
	}
	return n
}

// tapReplication attaches a tap to the leader listening at addr and returns
// once the snapshot has arrived, so every later delta is counted.
func tapReplication(t *testing.T, net *transport.MemNetwork, addr string, kr crypto.Key) *replTap {
	t.Helper()
	cipher, err := crypto.NewCipher(kr)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	hello := wire.Envelope{Type: wire.TypeReplState, Sender: "tap", Receiver: leaderName}
	hp, _ := wire.ReplStatePayload{Hello: true, Standby: "tap", Primary: leaderName}.Marshal()
	box, err := cipher.SealPlaintext(hp, hello.Header())
	if err != nil {
		t.Fatal(err)
	}
	hello.Payload = box
	if err := conn.Send(hello); err != nil {
		t.Fatal(err)
	}
	if env, err := conn.Recv(); err != nil || env.Type != wire.TypeReplState {
		t.Fatalf("tap snapshot: %v (%s)", err, env.Type)
	}
	tap := &replTap{}
	go func() {
		for {
			env, err := conn.Recv()
			if err != nil {
				return
			}
			plain, err := cipher.Open(env.Payload, env.Header())
			if err != nil {
				continue
			}
			if d, err := wire.UnmarshalReplDelta(plain); err == nil {
				tap.mu.Lock()
				tap.deltas = append(tap.deltas, d)
				tap.mu.Unlock()
			}
		}
	}()
	return tap
}

// promotedRig is a leader promoted from the replica of a primary that alice
// and bob had joined: it holds a resumable entry for each, reachable at
// "standby". bob has already resumed and watches the group.
type promotedRig struct {
	g     *Leader
	net   *transport.MemNetwork
	keys  map[string]crypto.Key
	kr    crypto.Key
	audit eventLog
	alice *member.Member // alice's dead pre-promotion session
	bob   *member.Member
}

func newPromotedRig(t *testing.T) *promotedRig {
	t.Helper()
	r := &promotedRig{kr: newReplKey(t), keys: make(map[string]crypto.Key), net: NewMemNetworkForTest(t)}
	for _, u := range []string{"alice", "bob"} {
		r.keys[u] = crypto.DeriveKey(u, leaderName, u+"-pw")
	}
	primary, err := NewLeader(Config{
		Name: leaderName, Users: r.keys, Rekey: DefaultRekeyPolicy(),
		ReplKey: r.kr, ReplPing: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := r.net.Listen(leaderName)
	if err != nil {
		t.Fatal(err)
	}
	go primary.Serve(l)
	t.Cleanup(func() { primary.Close(); l.Close() })
	sb, err := replica.NewStandby(replica.StandbyConfig{
		Standby: "standby", Primary: leaderName, Key: r.kr,
		Dial:    func() (transport.Conn, error) { return r.net.Dial(leaderName) },
		Silence: time.Minute, // stopped manually; dead detection not under test
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Stop()

	r.alice = join(t, r.net, "alice")
	oldBob := join(t, r.net, "bob")
	// The primary's pipelines must be idle too: a join ends with the key and
	// then the MemberList, and a replica that matches the member between the
	// two is one ack behind once the MemberList lands. Idle must hold on two
	// looks: a frame the connection's writer has taken from the outbox but
	// not yet sealed (it waits out the join's Leader.mu) shows on neither
	// the outbox nor the unacked FIFO, and by the second look it does.
	idle := func() bool {
		for _, s := range primary.reg.appendAll(nil, "") {
			s.mu.Lock()
			busy := len(s.unacked) > 0 || s.out.Len() > 0 || s.engine.PendingAdmin() > 0
			s.mu.Unlock()
			if busy {
				return false
			}
		}
		return true
	}
	waitFor(t, "replica quiescent with both sessions current", func() bool {
		if !idle() {
			return false
		}
		time.Sleep(5 * time.Millisecond)
		if !idle() {
			return false
		}
		st := sb.State()
		as, aok := r.alice.ResumeState()
		bs, bok := oldBob.ResumeState()
		return aok && bok && st.Epoch == primary.Epoch() &&
			st.Members["alice"].Nonce.Equal(as.Nonce) && st.Members["bob"].Nonce.Equal(bs.Nonce)
	})
	st := sb.State()
	sb.Stop()

	r.g, err = Promote(Config{
		Users: r.keys, Rekey: DefaultRekeyPolicy(), OnEvent: r.audit.sink,
		ReplKey: r.kr, // the promoted leader feeds a next-generation standby: the tap
	}, st)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := r.net.Listen("standby")
	if err != nil {
		t.Fatal(err)
	}
	go r.g.Serve(sl)
	t.Cleanup(func() { r.g.Close(); sl.Close() })
	r.bob = r.attach(t, oldBob, true)
	return r
}

// attach brings the user of a pre-promotion session onto the promoted
// leader, by resumption or by password.
func (r *promotedRig) attach(t *testing.T, old *member.Member, resume bool) *member.Member {
	t.Helper()
	conn, err := r.net.Dial("standby")
	if err != nil {
		t.Fatal(err)
	}
	var m *member.Member
	if st, ok := old.ResumeState(); resume && ok {
		m, err = member.Resume(conn, st, r.keys[old.Name()], member.Options{})
	} else {
		m, err = member.Join(conn, old.Name(), leaderName, r.keys[old.Name()])
	}
	if err != nil {
		t.Fatalf("attach %s (resume=%v): %v", old.Name(), resume, err)
	}
	t.Cleanup(func() { m.Leave() })
	return m
}

// TestAdmissionParity admits the same replicated user to a promoted leader
// by each route and checks that both leave the group in the same state, and
// differ only where they are meant to.
func TestAdmissionParity(t *testing.T) {
	enableMetrics(t)
	for _, tc := range []struct {
		name           string
		resume         bool
		kind, other    EventKind
		counter, quiet string
		rotations      uint64
	}{
		{"password join", false, EventJoined, EventResumed, "group_joins_total", "group_resumes_total", 1},
		{"resume", true, EventResumed, EventJoined, "group_resumes_total", "group_joins_total", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newPromotedRig(t)
			tap := tapReplication(t, r.net, "standby", r.kr)
			epoch, resumable := r.g.Epoch(), r.g.ResumableSessions()
			counted, quiet := counterVal(t, tc.counter), counterVal(t, tc.quiet)

			alice := r.attach(t, r.alice, tc.resume)
			if err := alice.WaitReady(5 * time.Second); err != nil {
				t.Fatal(err)
			}

			// Shared: MemberJoined reaches the others; the admitted member ends
			// up holding the current key, and its MemberList arrives last.
			waitEvent(t, r.bob, "bob sees alice join", func(e member.Event) bool {
				return e.Kind == member.EventJoined && e.Name == "alice"
			})
			waitFor(t, "alice at the leader's epoch and key", func() bool {
				gk, ge := r.g.GroupKey()
				mk, me := alice.GroupKey()
				return ge == epoch+tc.rotations && me == ge && mk.Equal(gk)
			})
			var got []member.Event
			waitFor(t, "alice's MemberList", func() bool {
				for {
					e, ok := alice.TryNext()
					if !ok {
						return len(got) > 0 && got[len(got)-1].Kind == member.EventJoined
					}
					got = append(got, e)
				}
			})
			time.Sleep(20 * time.Millisecond) // anything queued behind the MemberList would land now
			if e, ok := alice.TryNext(); ok {
				t.Errorf("event %v after the MemberList; admission must end with it", e)
			}
			if last := got[len(got)-1]; last.Name != "alice" || got[0].Kind != member.EventRekey {
				t.Errorf("alice's admission events = %v, want key material first and her own MemberList last", got)
			}
			// Shared: registered once, replicated once, resumable entry consumed.
			if m := r.g.Members(); len(m) != 2 || m[0] != "alice" || m[1] != "bob" {
				t.Errorf("members = %v, want [alice bob]", m)
			}
			waitFor(t, "one ReplMemberUp for alice", func() bool { return tap.memberUps("alice") == 1 })
			if n := r.g.ResumableSessions(); n != resumable-1 {
				t.Errorf("resumable sessions %d -> %d, want alice's entry consumed", resumable, n)
			}

			// The only differences: audit kind, counter, and rotation.
			if n := counterVal(t, tc.counter) - counted; n != 1 {
				t.Errorf("%s moved by %d, want 1", tc.counter, n)
			}
			if n := counterVal(t, tc.quiet) - quiet; n != 0 {
				t.Errorf("%s moved by %d, want 0", tc.quiet, n)
			}
			var kinds, others int
			for _, e := range r.audit.snapshot() {
				if e.User == "alice" && e.Kind == tc.kind {
					kinds++
				}
				if e.User == "alice" && e.Kind == tc.other {
					others++
				}
			}
			if kinds != 1 || others != 0 {
				t.Errorf("audit for alice: %d %v + %d %v, want 1 + 0", kinds, tc.kind, others, tc.other)
			}
			if n := tap.memberUps("alice"); n != 1 {
				t.Errorf("%d ReplMemberUp deltas for alice, want exactly 1", n)
			}
		})
	}
}

// TestRejoinClosesDisplacedSession: when a user joins on a second connection
// the first session leaves the registry — out of reach of the liveness sweep
// and of eviction — so admission itself must end it, or its connection and
// goroutines live until the peer hangs up.
func TestRejoinClosesDisplacedSession(t *testing.T) {
	g, net := testGroup(t, DefaultRekeyPolicy(), "alice")
	first := join(t, net, "alice")
	if err := first.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	second := join(t, net, "alice")
	defer second.Leave()
	if err := second.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	ev := waitEvent(t, first, "displaced session closed", func(e member.Event) bool {
		return e.Kind == member.EventClosed
	})
	if ev.Err == nil {
		t.Error("displaced session reported a voluntary close")
	}
	waitFor(t, "leader tracks one connection", func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		return len(g.conns) == 1
	})
	if m := g.Members(); len(m) != 1 || m[0] != "alice" {
		t.Errorf("members = %v, want [alice]", m)
	}
	if second.Epoch() != g.Epoch() {
		t.Errorf("live session at epoch %d, leader at %d", second.Epoch(), g.Epoch())
	}
}
