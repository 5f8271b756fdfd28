package group

// The rekey policy rotates at every change it names. These tests pin what
// that costs and what it owes: a burst of joins costs a slow member one
// AdminMsg per ack round trip, because keys queued behind its unacknowledged
// AdminMsg fold into the newest; a departed member never receives the key
// that follows its departure; an expulsion rotates before Expel returns;
// and rotations lose cleanly to Close. The race tests carry few assertions
// on purpose: their value is running a rotation concurrently with teardown
// under the race detector.

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"enclaves/internal/crypto"
	"enclaves/internal/lkh"
	"enclaves/internal/member"
	"enclaves/internal/replica"
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

// TestFlatJoinStormFoldsKeys: under the flat policy every join rotates, and
// its NewGroupKey names the join. 64 joiners, 16 at a time, reach survivors
// that hold their acks until the storm is over: the group rotates 64 times,
// yet each survivor gets the first key alone and the other 63 folded into
// the newest, two AdminMsgs where one per join cost 64, and still sees one
// Joined event per joiner, in the leader's order. No joiner is ever handed
// a key from before its admission.
func TestFlatJoinStormFoldsKeys(t *testing.T) {
	withMetrics(t)
	const survivors, joiners, wave = 4, 64, 16
	var log eventLog
	cfg := Config{Name: leaderName, Rekey: DefaultRekeyPolicy(), Users: map[string]crypto.Key{}, OnEvent: log.sink}
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
	epoch := g.Epoch()
	keys, folded := mKeys.Value(), mKeysFolded.Value()

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
	// Every key is in an engine before the survivors answer: join k's
	// rotation goes to the survivors and the k joiners before it, and each
	// joiner gets the current key of its own.
	waitFor(t, "the storm's keys to reach the engines", func() bool {
		return mKeys.Value()-keys == survivors*joiners+joiners+joiners*(joiners-1)/2
	})
	close(gate.release)
	quiesce(t, g, all)

	if e := g.Epoch(); e != epoch+joiners {
		t.Fatalf("epoch %d after %d joins from %d, want one rotation per join", e, joiners, epoch)
	}
	waitFor(t, "every join's audit event", func() bool { return log.count(EventRekeyed) == survivors+joiners })
	admitted := map[string]uint64{} // joiner -> epoch in force at its join
	var order []string
	for _, e := range log.snapshot() {
		if e.Kind == EventJoined {
			admitted[e.User] = e.Epoch
			order = append(order, e.User)
		}
	}
	for _, m := range ms {
		seqs := map[uint64]bool{}
		var names []string
		var epochs []uint64
		for _, ev := range adminEvents(m) {
			seqs[ev.Seq] = true
			switch ev.Kind {
			case member.EventJoined:
				names = append(names, ev.Name)
			case member.EventRekey:
				epochs = append(epochs, ev.Epoch)
			}
		}
		if len(seqs) != 2 || !reflect.DeepEqual(epochs, []uint64{epoch + 1, epoch + joiners}) {
			t.Errorf("%s got keys %v in %d AdminMsgs, want epochs %d and %d in 2", m.Name(), epochs, len(seqs), epoch+1, epoch+joiners)
		}
		if want := order[survivors:]; !reflect.DeepEqual(names, want) {
			t.Errorf("%s saw joins %v, want the leader's order %v", m.Name(), names, want)
		}
	}
	for _, m := range all[survivors:] {
		for _, ev := range adminEvents(m) {
			if ev.Kind == member.EventRekey && ev.Epoch <= admitted[m.Name()] {
				t.Errorf("%s admitted at epoch %d was handed epoch %d", m.Name(), admitted[m.Name()], ev.Epoch)
			}
		}
	}
	if n, f := mKeys.Value()-keys, mKeysFolded.Value()-folded; f < survivors*(joiners-2) || f >= n {
		t.Errorf("%d of %d keys folded, want at least %d", f, n, survivors*(joiners-2))
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

// TestEvictionForwardSecrecy: an evicted member is removed from the registry
// before the rotation its eviction triggers, so the post-eviction key is
// broadcast only to survivors. The victim's last-seen epoch must strictly
// precede the group's post-eviction epoch.
func TestEvictionForwardSecrecy(t *testing.T) {
	var logr eventLog
	g, net, keys := logGroup(t, Config{
		Rekey:   RekeyPolicy{OnLeave: true},
		OnEvent: logr.sink,
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
	victim, err := member.Join(lossy, "victim", leaderName, keys["victim"])
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
	evicted, _ := logr.last(EventEvicted)
	waitFor(t, "post-eviction rekey", func() bool { return g.Epoch() > evicted.Epoch })

	// The victim is out of the registry, so the post-eviction key can never
	// have reached it: its view is frozen strictly before the new epoch.
	if ve, ge := victim.Epoch(), g.Epoch(); ve >= ge {
		t.Fatalf("victim saw epoch %d, group is at %d — an evicted member observed a post-eviction key", ve, ge)
	}
	// The audit stream is async, so wait for the rotation's record to land.
	waitFor(t, "audit records the post-eviction rekey", func() bool {
		rekeyed, ok := logr.last(EventRekeyed)
		return ok && rekeyed.Epoch > evicted.Epoch
	})
}

// TestExpelRotatesAtOnce: the rotation happens synchronously inside the
// Expel call, and the audit event is stamped with the epoch in force when
// the expulsion happened (captured under the lock, so a concurrent rotation
// cannot skew it), before the rotation to the next.
func TestExpelRotatesAtOnce(t *testing.T) {
	var logr eventLog
	g, net, _ := logGroup(t, Config{Rekey: DefaultRekeyPolicy(), OnEvent: logr.sink}, "target", "bystander")

	target := join(t, net, "target")
	bystander := join(t, net, "bystander")
	defer bystander.Leave()
	for _, m := range []*member.Member{target, bystander} {
		go func() {
			for {
				if _, err := m.Next(); err != nil {
					return
				}
			}
		}()
	}
	waitFor(t, "both joined", func() bool { return len(g.Members()) == 2 })

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
	expelled, _ := logr.last(EventExpelled)
	rotation, _ := logr.last(EventRekeyed)
	if expelled.Epoch != epochBefore || rotation.Epoch != epochBefore+1 || expelled.Seq > rotation.Seq {
		t.Fatalf("expel #%d at epoch %d, rotation #%d to epoch %d; want the expulsion at %d before its rotation to %d",
			expelled.Seq, expelled.Epoch, rotation.Seq, rotation.Epoch, epochBefore, epochBefore+1)
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

// rekeyRacingClose rotates g while another goroutine closes it: each
// rotation lands before Close or fails with errLeaderClosed.
func rekeyRacingClose(t *testing.T, g *Leader) {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g.Close()
	}()
	for i := 0; i < 2; i++ {
		if err := g.Rekey(); err != nil && err != errLeaderClosed {
			t.Errorf("Rekey racing Close: %v", err)
		}
	}
	wg.Wait()
}

// TestRekeyRacesClose tears the leader down while it rotates, many times
// over, flat and LKH both; under LKH the rotation queues its KeyBoxes
// under the same lock, so it must lose to Close the same way.
func TestRekeyRacesClose(t *testing.T) {
	for i := 0; i < 40; i++ {
		cfg := Config{Name: leaderName, Users: map[string]crypto.Key{}, Rekey: DefaultRekeyPolicy()}
		if i%2 == 1 {
			cfg.LKH = true
			cfg.LKHArity = 2
		}
		g, err := NewLeader(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rekeyRacingClose(t, g)
	}
}

// TestPromotedLeaderRekeyRacesClose promotes from a replicated LKH state,
// then rotates and tears down at once: the promotion's forced rotation, a
// further rotation and Close interleave on a leader whose tree came from
// the replica.
func TestPromotedLeaderRekeyRacesClose(t *testing.T) {
	tree, err := lkh.New(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"alice", "bob", "carol"} {
		if err := tree.Join(u); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tree.RotateDirty(); err != nil {
		t.Fatal(err)
	}
	base := replica.State{
		Primary: leaderName, Epoch: 9, GroupKey: tree.RootKey(), AuditSeq: 3,
		Members: map[string]wire.ReplMember{
			"alice": {SessionKey: newReplKey(t)},
			"bob":   {SessionKey: newReplKey(t)},
			"carol": {SessionKey: newReplKey(t)},
		},
		LKHArity: 2,
		Tree:     make(map[uint64]wire.ReplLKHNode),
	}
	for _, r := range tree.Records() {
		base.Tree[uint64(r.ID)] = toReplNode(r)
	}
	users := map[string]crypto.Key{
		"alice": newReplKey(t), "bob": newReplKey(t), "carol": newReplKey(t),
	}

	for i := 0; i < 25; i++ {
		g, err := Promote(Config{Users: users, Rekey: DefaultRekeyPolicy()}, base.Clone())
		if err != nil {
			t.Fatal(err)
		}
		rekeyRacingClose(t, g)
	}
}
