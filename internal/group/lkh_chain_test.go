package group

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"enclaves/internal/core"
	"enclaves/internal/crypto"
	"enclaves/internal/wire"
)

// TestLKHBoxChainsShared pins the shared box chains of an LKH rotation over
// 20 members at arity 4: members below the same deepest rotated box get
// Boxes backed by one array, each box is sealed once however many members
// resolve it, and the engines' tail folds over a shared chain leave it
// byte-identical for the members that share it. The members' outboxes are
// not drained, so every frame of a rotation is resolved here, by two
// goroutines at once, the way the connections' writers resolve it.
func TestLKHBoxChainsShared(t *testing.T) {
	withMetrics(t)
	const n = 20
	g, err := NewLeader(Config{Name: leaderName, LKH: true, LKHArity: 4, Users: map[string]crypto.Key{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	ss := make([]*memberConn, n)
	g.mu.Lock()
	for i := range ss {
		u := fmt.Sprintf("u%02d", i)
		engine, err := core.NewLeaderSession(leaderName, u, crypto.DeriveKey(u, leaderName, u+"-pw"))
		if err != nil {
			t.Fatal(err)
		}
		// An engine still in its handshake queues every body it is sent,
		// so each rotation after the first folds into the tail.
		ss[i] = newTestConn(u, 64)
		ss[i].engine = engine
		g.reg.insert(ss[i])
		if err := g.tree.Join(u); err != nil {
			t.Fatal(err)
		}
	}
	g.mu.Unlock()
	// rotate rotates u00's path (the whole tree the first time) and returns
	// the rotation's box count and each member's one frame.
	rotate := func() (int, []outFrame) {
		t.Helper()
		g.mu.Lock()
		g.tree.MarkDirty(ss[0].user)
		ups, err := g.tree.RotateDirty()
		if err != nil {
			t.Fatal(err)
		}
		g.epoch++
		g.queueKeyBoxesLocked(ups, nil, "")
		g.mu.Unlock()
		frames := make([]outFrame, n)
		for i, s := range ss {
			fs, _ := s.out.PopAll(nil)
			s.drained(len(fs))
			if len(fs) != 1 || fs[0].box == nil {
				t.Fatalf("%s has %d frames queued, want one KeyBoxes with its deepest box", s.user, len(fs))
			}
			frames[i] = fs[0]
		}
		return len(ups), frames
	}
	rotate() // every leaf joined dirty; from here on only u00's path rotates

	seals := mLKHSeals.Value()
	boxes, frames := rotate()
	// Two writers resolve the rotation at once, as two sockets' writers do,
	// each member's frame resolved and then handed to its engine.
	resolved := make([][]wire.KeyBox, n)
	emitted := make([]bool, n)
	var wg sync.WaitGroup
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += 2 {
				resolved[i] = g.sealChain(frames[i].body.(wire.KeyBoxes), frames[i].box).Boxes
				_, emitted[i] = g.sealFrame(ss[i], frames[i])
			}
		}()
	}
	wg.Wait()
	type edge struct{ node, under uint64 }
	chains := make(map[edge]*wire.KeyBox) // deepest box -> its chain's array
	sharers := make(map[edge]int)
	var shared [][]wire.KeyBox
	for i, got := range resolved {
		if len(got) == 0 || !got[len(got)-1].Root {
			t.Fatalf("%s got %d boxes, not ending at the root's", ss[i].user, len(got))
		}
		deepest := edge{got[0].Node, got[0].Under}
		if first, ok := chains[deepest]; !ok {
			chains[deepest] = &got[0]
			shared = append(shared, got)
		} else if first != &got[0] {
			t.Errorf("%s got its own copy of the chain from node %d's box to %d", ss[i].user, deepest.node, deepest.under)
		}
		sharers[deepest]++
		if emitted[i] {
			t.Fatalf("%s: an engine in its handshake emitted an AdminMsg", ss[i].user)
		}
	}
	most := 0
	for _, c := range sharers {
		most = max(most, c)
	}
	if most < 4 {
		t.Fatalf("at most %d members share a deepest box, want a whole subtree of at least 4", most)
	}
	if got := mLKHSeals.Value() - seals; got != uint64(boxes) {
		t.Errorf("%d members resolved %d boxes with %d seals, want one seal per box", n, boxes, got)
	}

	// Deep copies of the rotation's chains, then two more rotations of the
	// same path: each member's engine folds twice into its tail body.
	want := make([][]wire.KeyBox, len(shared))
	for i, c := range shared {
		want[i] = make([]wire.KeyBox, len(c))
		for j, b := range c {
			b.Box = bytes.Clone(b.Box)
			want[i][j] = b
		}
	}
	keys, folded := mKeys.Value(), mKeysFolded.Value()
	for r := 0; r < 2; r++ {
		_, frames := rotate()
		for i, f := range frames {
			g.sealFrame(ss[i], f)
		}
	}
	if got := mKeysFolded.Value() - folded; got != 2*n || mKeys.Value()-keys != 2*n {
		t.Fatalf("%d of %d key bodies folded, want all %d", got, mKeys.Value()-keys, 2*n)
	}
	for _, s := range ss {
		if q := s.engine.PendingAdmin(); q != 1 {
			t.Fatalf("%s has %d bodies queued after the folds, want 1", s.user, q)
		}
	}
	for i, c := range shared {
		for j := range c {
			if !reflect.DeepEqual(c[j], want[i][j]) {
				t.Fatalf("a fold rewrote box %d of a shared chain: node %d version %d, was node %d version %d",
					j, c[j].Node, c[j].Ver, want[i][j].Node, want[i][j].Ver)
			}
		}
	}
}
