package replica

import (
	"testing"
	"time"

	"enclaves/internal/crypto"
	"enclaves/internal/transport"
	"enclaves/internal/wire"
)

func newTestKey(t *testing.T) crypto.Key {
	t.Helper()
	k, err := crypto.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestApplyLKHDeltas(t *testing.T) {
	st := State{Primary: "p", Members: make(map[string]wire.ReplMember)}
	k1, k2 := newTestKey(t), newTestKey(t)

	st.Apply(wire.ReplDeltaPayload{Kind: wire.ReplLKH, Nodes: []wire.ReplLKHNode{
		{ID: 1, Ver: 1, Key: k1},
		{ID: 2, Parent: 1, Ver: 1, User: "alice", Key: k2},
	}})
	if len(st.Tree) != 2 || st.Tree[2].User != "alice" {
		t.Fatalf("tree after upsert: %+v", st.Tree)
	}

	// Last-writer-wins upsert plus pruning in one delta.
	st.Apply(wire.ReplDeltaPayload{Kind: wire.ReplLKH, Nodes: []wire.ReplLKHNode{{ID: 1, Ver: 2, Key: k2}}, Removed: []uint64{2}})
	if len(st.Tree) != 1 || st.Tree[1].Ver != 2 || !st.Tree[1].Key.Equal(k2) {
		t.Fatalf("tree after update+remove: %+v", st.Tree)
	}

	st.Apply(wire.ReplDeltaPayload{Kind: wire.ReplRekey, Epoch: 5, GroupKey: k1})
	if st.Epoch != 5 {
		t.Fatalf("epoch = %d", st.Epoch)
	}
}

func TestCloneDeepCopiesTree(t *testing.T) {
	st := State{
		Members: make(map[string]wire.ReplMember),
		Tree: map[uint64]wire.ReplLKHNode{
			1: {ID: 1, Ver: 1, Key: newTestKey(t)},
		},
		LKHArity: 4,
	}
	cp := st.Clone()
	if cp.LKHArity != 4 || len(cp.Tree) != 1 {
		t.Fatalf("clone lost tree state: %+v", cp)
	}
	cp.Tree[2] = wire.ReplLKHNode{ID: 2}
	if _, ok := st.Tree[2]; ok {
		t.Fatal("clone shares the tree map")
	}
}

// TestReplicationStreamCarriesTree runs a real Sender against a real Standby
// over a pipe and checks that the LKH tree and arity survive both the
// snapshot path and the delta path.
func TestReplicationStreamCarriesTree(t *testing.T) {
	kr := newTestKey(t)
	sender, err := NewSender("leader", kr, t.Logf)
	if err != nil {
		t.Fatal(err)
	}

	snap := wire.ReplStatePayload{
		Epoch:    3,
		GroupKey: newTestKey(t),
		Members:  []wire.ReplMember{{User: "alice", SessionKey: newTestKey(t), Seq: 1}},
		LKHArity: 4,
		Tree: []wire.ReplLKHNode{
			{ID: 1, Ver: 2, Key: newTestKey(t)},
			{ID: 2, Parent: 1, Ver: 1, User: "alice", Key: newTestKey(t)},
		},
	}

	dial := func() (transport.Conn, error) {
		a, b := transport.Pipe()
		go func() {
			env, err := a.Recv()
			if err != nil {
				return
			}
			standby, n0, err := sender.HandleHello(env)
			if err != nil {
				t.Errorf("hello: %v", err)
				_ = a.Close()
				return
			}
			sender.Attach(a, standby, n0, snap)
		}()
		return b, nil
	}

	sb, err := NewStandby(StandbyConfig{
		Standby: "standby",
		Primary: "leader",
		Key:     kr,
		Dial:    dial,
		Silence: 5 * time.Second,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Stop()

	waitFor := func(what string, cond func(State) bool) State {
		t.Helper()
		deadline := time.Now().Add(3 * time.Second)
		for time.Now().Before(deadline) {
			st := sb.State()
			if cond(st) {
				return st
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s: %+v", what, sb.State())
		return State{}
	}

	st := waitFor("snapshot", func(st State) bool { return len(st.Tree) == 2 })
	if st.LKHArity != 4 {
		t.Fatalf("snapshot lost arity: %+v", st)
	}
	if st.Tree[2].User != "alice" || !st.Tree[1].Key.Equal(snap.Tree[0].Key) {
		t.Fatalf("snapshot tree mismatch: %+v", st.Tree)
	}

	// A rotation: new node versions plus the epoch bump.
	newRoot := newTestKey(t)
	sender.Publish(wire.ReplDeltaPayload{Kind: wire.ReplLKH, AuditSeq: 1, Nodes: []wire.ReplLKHNode{
		{ID: 1, Ver: 3, Key: newRoot},
	}, Removed: []uint64{2}})
	sender.Publish(wire.ReplDeltaPayload{Kind: wire.ReplRekey, AuditSeq: 2, Epoch: 4, GroupKey: newRoot})

	st = waitFor("rotation deltas", func(st State) bool { return st.Epoch == 4 })
	if len(st.Tree) != 1 || st.Tree[1].Ver != 3 || !st.Tree[1].Key.Equal(newRoot) {
		t.Fatalf("delta tree mismatch: %+v", st.Tree)
	}
	sender.Detach()
}
