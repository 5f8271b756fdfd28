package group

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"enclaves/internal/crypto"
	"enclaves/internal/member"
	"enclaves/internal/replica"
	"enclaves/internal/transport"
	"enclaves/internal/wire"
)

// logGroup starts a replicating leader with cfg's policies on an in-memory
// network, with every named user registered (password = name + "-pw").
func logGroup(t *testing.T, cfg Config, users ...string) (*Leader, *transport.MemNetwork, map[string]crypto.Key) {
	t.Helper()
	keys := make(map[string]crypto.Key, len(users))
	for _, u := range users {
		keys[u] = crypto.DeriveKey(u, leaderName, u+"-pw")
	}
	cfg.Name, cfg.Users = leaderName, keys
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
	t.Cleanup(func() { g.Close(); l.Close() })
	return g, net, keys
}

// TestChangeLogCauseBeforeEffect: in both projections of the change log a
// membership record precedes the rotation it triggers and carries the epoch
// in force when it happened — joins, leaves, expulsions and evictions alike
// — and both projections number a record with the same Seq.
func TestChangeLogCauseBeforeEffect(t *testing.T) {
	var log eventLog
	kr := newReplKey(t)
	g, net, keys := logGroup(t, Config{
		Rekey: DefaultRekeyPolicy(), OnEvent: log.sink, ReplKey: kr,
		Liveness: Liveness{AckTimeout: 300 * time.Millisecond},
	}, "alice", "bob", "carol", "dead")
	tap := tapReplication(t, net, leaderName, kr)

	alice := join(t, net, "alice")
	join(t, net, "bob")
	carol := join(t, net, "carol")
	defer carol.Leave()
	silentMember(t, net, leaderName, "dead", keys["dead"])
	waitFor(t, "the silent member evicted", func() bool { return log.count(EventEvicted) == 1 })
	if err := alice.Leave(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "alice's leave", func() bool { return log.count(EventLeft) == 1 })
	if err := g.Expel("bob"); err != nil {
		t.Fatal(err)
	}

	causes := map[EventKind]string{EventJoined: "join ", EventLeft: "leave ", EventEvicted: "leave ", EventExpelled: "expel "}
	type pair struct{ change, rotation Event }
	var pairs []pair
	waitFor(t, "seven membership changes and their rotations", func() bool {
		rotations := map[string]Event{}
		pairs = pairs[:0]
		events := log.snapshot()
		for _, e := range events {
			if e.Kind == EventRekeyed {
				rotations[e.Detail] = e
			}
		}
		for _, e := range events {
			if prefix, ok := causes[e.Kind]; ok {
				if r, ok := rotations[prefix+e.User]; ok {
					pairs = append(pairs, pair{e, r})
				}
			}
		}
		return len(pairs) == 7
	})
	for _, p := range pairs {
		if p.change.Seq > p.rotation.Seq || p.change.Epoch+1 != p.rotation.Epoch {
			t.Errorf("audit: %v, then its rotation %v; want the change first, stamped with the epoch before", p.change, p.rotation)
		}
	}

	last := pairs[len(pairs)-1].rotation.Seq
	waitFor(t, "the tap caught up", func() bool {
		ds := tap.snapshot()
		return len(ds) > 0 && ds[len(ds)-1].AuditSeq >= last
	})
	at := map[uint64]int{}
	deltas := tap.snapshot()
	for i, d := range deltas {
		at[d.AuditSeq] = i
	}
	for _, p := range pairs {
		want := wire.ReplMemberUp
		if p.change.Kind != EventJoined {
			want = wire.ReplMemberDown
		}
		c, cok := at[p.change.Seq]
		r, rok := at[p.rotation.Seq]
		switch {
		case !cok || !rok:
			t.Errorf("replication: no delta numbered #%d or #%d (%v)", p.change.Seq, p.rotation.Seq, p.change)
		case deltas[c].Kind != want || deltas[c].User != p.change.User:
			t.Errorf("replication: #%d is %v %s, want %v %s", p.change.Seq, deltas[c].Kind, deltas[c].User, want, p.change.User)
		case deltas[r].Kind != wire.ReplRekey || deltas[r].Epoch != p.rotation.Epoch:
			t.Errorf("replication: #%d is %v at epoch %d, want Rekey to %d", p.rotation.Seq, deltas[r].Kind, deltas[r].Epoch, p.rotation.Epoch)
		case c > r:
			t.Errorf("replication: %v for %s after its rotation", deltas[c].Kind, p.change.User)
		}
	}
}

// TestSubscribeDuringAcks: a standby that subscribes while acks are in
// flight misses none of them. The snapshot and the first delta meet at one
// log position, so a session sync recorded while the snapshot is being cut
// is either in it or queued behind it. A lost one leaves the replica on a
// nonce the member has moved past, and a failover in that gap would refuse
// the member's resume.
func TestSubscribeDuringAcks(t *testing.T) {
	const n, rounds = 32, 200
	kr := newReplKey(t)
	users := make([]string, n)
	for i := range users {
		users[i] = fmt.Sprintf("user%02d", i)
	}
	g, net, _ := logGroup(t, Config{ReplKey: kr}, users...)
	for _, u := range users {
		m := join(t, net, u)
		defer m.Leave()
	}
	waitFor(t, "every member joined", func() bool { return len(g.Members()) == n })

	stale := 0
	for range rounds {
		rekeyed := make(chan error, 1)
		go func() { rekeyed <- g.Rekey() }()
		sb, err := replica.NewStandby(replica.StandbyConfig{
			Standby: "standby", Primary: leaderName, Key: kr,
			Dial:    func() (transport.Conn, error) { return net.Dial(leaderName) },
			Silence: 5 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := <-rekeyed; err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(time.Second)
		for !replicaCaughtUp(g, sb) {
			if time.Now().After(deadline) {
				stale++
				break
			}
			time.Sleep(time.Millisecond)
		}
		sb.Stop()
	}
	if stale > 0 {
		t.Errorf("replica kept a stale session in %d/%d rounds", stale, rounds)
	}
}

// TestReplicaFoldsToSnapshot: a standby subscribed from the start, folding
// every delta of scripted LKH churn — joins, leaves, an expulsion, an
// eviction, a manual rekey — holds exactly what a fresh snapshot would give
// it: members and their sessions, epoch, group key and the key tree.
func TestReplicaFoldsToSnapshot(t *testing.T) {
	kr := newReplKey(t)
	g, net, keys := logGroup(t, Config{
		Rekey: DefaultRekeyPolicy(), LKH: true, LKHArity: 2, ReplKey: kr,
		Liveness: Liveness{AckTimeout: 300 * time.Millisecond},
	}, "alice", "bob", "carol", "dave", "erin", "dead")
	sb, err := replica.NewStandby(replica.StandbyConfig{
		Standby: "standby", Primary: leaderName, Key: kr,
		Dial:    func() (transport.Conn, error) { return net.Dial(leaderName) },
		Silence: time.Minute, // no pings: stopped by the test
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Stop()
	waitFor(t, "standby synced", sb.Synced)

	// The fields a promotion reads, from the replica and, as a standby
	// builds them, from a fresh snapshot.
	replicated := func(st replica.State) replica.State {
		return replica.State{Members: st.Members, Epoch: st.Epoch, GroupKey: st.GroupKey, Tree: st.Tree}
	}
	snapshot := func() replica.State {
		g.mu.Lock()
		g.log.mu.Lock()
		p := g.snapshotLocked()
		g.log.mu.Unlock()
		g.mu.Unlock()
		st := replica.State{
			Epoch: p.Epoch, GroupKey: p.GroupKey,
			Members: make(map[string]wire.ReplMember), Tree: make(map[uint64]wire.ReplLKHNode),
		}
		for _, m := range p.Members {
			st.Members[m.User] = m
		}
		for _, n := range p.Tree {
			st.Tree[n.ID] = n
		}
		return st
	}
	folded := func() bool { return reflect.DeepEqual(replicated(sb.State()), snapshot()) }

	ms := make(map[string]*member.Member)
	for _, u := range []string{"alice", "bob", "carol", "dave"} {
		ms[u] = join(t, net, u)
	}
	silentMember(t, net, leaderName, "dead", keys["dead"])
	waitFor(t, "the silent member joined", func() bool { return len(g.Members()) == 5 })
	waitFor(t, "the silent member evicted", func() bool { return len(g.Members()) == 4 })

	if err := ms["alice"].Leave(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "replica folds to the snapshot after a leave", folded)
	if err := g.Expel("bob"); err != nil {
		t.Fatal(err)
	}
	ms["erin"] = join(t, net, "erin")
	if err := ms["carol"].Leave(); err != nil {
		t.Fatal(err)
	}
	if err := g.Rekey(); err != nil {
		t.Fatal(err)
	}
	defer ms["dave"].Leave()
	defer ms["erin"].Leave()
	waitFor(t, "replica folds to the snapshot after the churn", folded)
}
