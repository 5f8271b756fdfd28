package lkh

import (
	"fmt"
	"math"
	"testing"

	"enclaves/internal/crypto"
)

func mustJoin(t *testing.T, tree *Tree, user string) {
	t.Helper()
	if err := tree.Join(user); err != nil {
		t.Fatalf("join %s: %v", user, err)
	}
}

func rotate(t *testing.T, tree *Tree) []Update {
	t.Helper()
	ups, err := tree.RotateDirty()
	if err != nil {
		t.Fatalf("rotate: %v", err)
	}
	return ups
}

// memberKeys simulates the member side: starting from the member's path
// entries, apply a stream of updates exactly as the runtime does (open the
// box for a node if we hold the Under key, version-gated).
type memberKeys map[NodeID]Entry

func pathState(t *testing.T, tree *Tree, user string) memberKeys {
	t.Helper()
	path, ok := tree.Path(user)
	if !ok {
		t.Fatalf("no path for %s", user)
	}
	mk := make(memberKeys)
	for _, e := range path {
		mk[e.Node] = e
	}
	return mk
}

// apply consumes the updates a member holding mk can open, returning how
// many it absorbed.
func (mk memberKeys) apply(ups []Update) int {
	n := 0
	for _, u := range ups {
		under, ok := mk[u.Under]
		if !ok || !under.Key.Equal(u.SealKey) {
			continue
		}
		if cur, ok := mk[u.Node]; ok && cur.Ver >= u.Ver {
			continue
		}
		mk[u.Node] = Entry{Node: u.Node, Ver: u.Ver, Key: u.NewKey}
		n++
	}
	return n
}

func TestJoinRotateDeliversPathToEveryone(t *testing.T) {
	tree, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	users := []string{"a", "b", "c", "d", "e", "f", "g"}
	states := map[string]memberKeys{}
	for _, u := range users {
		mustJoin(t, tree, u)
		// Existing members absorb the rotation updates; the joiner is
		// handed its path afterward (immediate-rekey order).
		ups := rotate(t, tree)
		if len(ups) == 0 {
			t.Fatalf("join %s produced no updates", u)
		}
		if !ups[len(ups)-1].Root {
			t.Fatalf("last update after join %s is not the root rotation", u)
		}
		for _, s := range states {
			s.apply(ups)
		}
		states[u] = pathState(t, tree, u)

		// Every member must now hold the current root (group) key.
		for m, s := range states {
			e, ok := s[tree.RootID()]
			if !ok || !e.Key.Equal(tree.RootKey()) {
				t.Fatalf("after join %s: member %s lacks current group key", u, m)
			}
		}
	}
	if tree.Size() != len(users) {
		t.Fatalf("size = %d, want %d", tree.Size(), len(users))
	}
}

func TestLeaveForwardSecrecy(t *testing.T) {
	tree, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	users := []string{"a", "b", "c", "d", "e"}
	states := map[string]memberKeys{}
	for _, u := range users {
		mustJoin(t, tree, u)
		ups := rotate(t, tree)
		for _, s := range states {
			s.apply(ups)
		}
		states[u] = pathState(t, tree, u)
	}

	departed := states["c"]
	if !tree.Remove("c") {
		t.Fatal("remove c: not present")
	}
	delete(states, "c")
	ups := rotate(t, tree)

	// The departed member keeps its pre-departure knowledge and sees every
	// ciphertext; it must not be able to open any update (no update may be
	// sealed under a key it holds).
	if n := departed.apply(ups); n != 0 {
		t.Fatalf("departed member absorbed %d post-departure updates", n)
	}
	if e, ok := departed[tree.RootID()]; ok && e.Key.Equal(tree.RootKey()) {
		t.Fatal("departed member holds the post-departure group key")
	}

	// Every remaining member converges on the new group key.
	for m, s := range states {
		s.apply(ups)
		e, ok := s[tree.RootID()]
		if !ok || !e.Key.Equal(tree.RootKey()) {
			t.Fatalf("surviving member %s lacks post-departure group key", m)
		}
	}
}

func TestJoinBackwardSecrecy(t *testing.T) {
	tree, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"a", "b", "c", "d"} {
		mustJoin(t, tree, u)
		rotate(t, tree)
	}
	oldRoot := tree.RootKey()

	mustJoin(t, tree, "newcomer")
	// Immediate-rekey join: the joiner starts from only its fresh leaf and
	// must reconstruct its whole new path from the child-sealed updates —
	// without ever learning the pre-join group key.
	id, key, ok := tree.Leaf("newcomer")
	if !ok {
		t.Fatal("no leaf for newcomer")
	}
	joiner := memberKeys{id: {Node: id, Ver: 1, Key: key}}
	ups := rotate(t, tree)
	joiner.apply(ups)

	e, ok := joiner[tree.RootID()]
	if !ok {
		t.Fatal("joiner did not learn the group key from its branch updates")
	}
	if !e.Key.Equal(tree.RootKey()) {
		t.Fatal("joiner learned a stale group key")
	}
	if e.Key.Equal(oldRoot) {
		t.Fatal("group key did not change on join")
	}
	for nid, entry := range joiner {
		_ = nid
		if entry.Key.Equal(oldRoot) {
			t.Fatal("joiner holds the pre-join group key")
		}
	}
}

func TestRotationCostLogarithmic(t *testing.T) {
	const n = 4096
	arity := 4
	tree, err := New(arity)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		mustJoin(t, tree, fmt.Sprintf("m%05d", i))
	}
	rotate(t, tree) // settle the bulk-join dirt

	if !tree.Remove("m02048") {
		t.Fatal("remove failed")
	}
	ups := rotate(t, tree)
	// One departure rotates one path: at most arity seals per level, with
	// slack for the one extra level unbalanced insertion can add.
	maxSeals := arity * (int(math.Ceil(math.Log(float64(n))/math.Log(float64(arity)))) + 2)
	if len(ups) > maxSeals {
		t.Fatalf("leave rekey cost %d seals at n=%d, want <= %d (O(log n))", len(ups), n, maxSeals)
	}
	if len(ups) < 2 {
		t.Fatalf("suspiciously few updates: %d", len(ups))
	}

	// Recipient count: every remaining member has a rotated subtree on its
	// path, so deliveries stay O(n), while seal count stays O(log n).
	under := map[NodeID]bool{}
	for _, u := range ups {
		under[u.Under] = true
	}
	total := 0
	for _, m := range tree.Members() {
		for id := range tree.PathIDs(m) {
			if under[id] {
				total++
				break
			}
		}
	}
	if total < n-1 {
		t.Fatalf("rotation reached only %d of %d member-deliveries", total, n-1)
	}
}

func TestTreeDepthBalanced(t *testing.T) {
	const n = 1024
	tree, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		mustJoin(t, tree, fmt.Sprintf("m%04d", i))
	}
	maxDepth := 0
	for _, u := range tree.Members() {
		p, _ := tree.Path(u)
		if len(p) > maxDepth {
			maxDepth = len(p)
		}
	}
	// ceil(log_4 1024) = 5 internal levels + leaf; allow slack for the
	// demotion scheme's one extra level.
	if maxDepth > 8 {
		t.Fatalf("max path length %d at n=%d, tree is degenerate", maxDepth, n)
	}
}

func TestRecordsRoundTrip(t *testing.T) {
	tree, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"a", "b", "c", "d", "e", "f"} {
		mustJoin(t, tree, u)
	}
	rotate(t, tree)
	tree.Remove("b")
	rotate(t, tree)

	recs := tree.Records()
	rebuilt, err := FromRecords(tree.Arity(), recs)
	if err != nil {
		t.Fatalf("FromRecords: %v", err)
	}
	if rebuilt.Size() != tree.Size() {
		t.Fatalf("size %d != %d", rebuilt.Size(), tree.Size())
	}
	if !rebuilt.RootKey().Equal(tree.RootKey()) {
		t.Fatal("root key lost in round trip")
	}
	if rebuilt.RootID() != tree.RootID() {
		t.Fatal("root ID lost in round trip")
	}
	for _, u := range tree.Members() {
		want, _ := tree.Path(u)
		got, ok := rebuilt.Path(u)
		if !ok || len(got) != len(want) {
			t.Fatalf("path for %s lost: got %d entries, want %d", u, len(got), len(want))
		}
		for i := range want {
			if got[i].Node != want[i].Node || got[i].Ver != want[i].Ver || !got[i].Key.Equal(want[i].Key) {
				t.Fatalf("path entry %d for %s differs", i, u)
			}
		}
	}

	// The rebuilt tree keeps working: a join and a rotation succeed and
	// allocate a fresh node ID (no reuse).
	before := rebuilt.RootVer()
	mustJoin(t, rebuilt, "g")
	if _, err := rebuilt.RotateDirty(); err != nil {
		t.Fatal(err)
	}
	if rebuilt.RootVer() <= before {
		t.Fatal("rebuilt tree did not rotate")
	}
}

func TestFromRecordsRejectsMalformed(t *testing.T) {
	k := func() crypto.Key {
		key, err := crypto.NewKey()
		if err != nil {
			t.Fatal(err)
		}
		return key
	}
	cases := map[string][]Record{
		"no root":       {{ID: 1, Parent: 2, Ver: 1, Key: k()}, {ID: 2, Parent: 1, Ver: 1, Key: k()}},
		"two roots":     {{ID: 1, Ver: 1, Key: k()}, {ID: 2, Ver: 1, Key: k()}},
		"dup node":      {{ID: 1, Ver: 1, Key: k()}, {ID: 1, Ver: 1, Key: k()}},
		"missing key":   {{ID: 1, Ver: 1}},
		"orphan parent": {{ID: 1, Ver: 1, Key: k()}, {ID: 2, Parent: 9, Ver: 1, Key: k()}},
		"leaf parent": {
			{ID: 1, Ver: 1, Key: k()},
			{ID: 2, Parent: 1, Ver: 1, User: "a", Key: k()},
			{ID: 3, Parent: 2, Ver: 1, User: "b", Key: k()},
		},
		"dup member": {
			{ID: 1, Ver: 1, Key: k()},
			{ID: 2, Parent: 1, Ver: 1, User: "a", Key: k()},
			{ID: 3, Parent: 1, Ver: 1, User: "a", Key: k()},
		},
	}
	for name, recs := range cases {
		if _, err := FromRecords(2, recs); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestDrainChanges(t *testing.T) {
	tree, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	tree.DrainChanges() // drop the root creation record

	mustJoin(t, tree, "a")
	mustJoin(t, tree, "b")
	ups, rem := tree.DrainChanges()
	if len(rem) != 0 {
		t.Fatalf("unexpected removals: %v", rem)
	}
	if len(ups) == 0 {
		t.Fatal("joins produced no change records")
	}
	seen := map[string]bool{}
	for _, r := range ups {
		if r.User != "" {
			seen[r.User] = true
		}
	}
	if !seen["a"] || !seen["b"] {
		t.Fatalf("leaf records missing from drain: %v", ups)
	}

	rotate(t, tree)
	ups, _ = tree.DrainChanges()
	if len(ups) == 0 {
		t.Fatal("rotation produced no change records")
	}

	tree.Remove("a")
	ups, rem = tree.DrainChanges()
	if len(rem) == 0 {
		t.Fatal("removal produced no removed IDs")
	}
	_ = ups

	// Drained changes replayed onto a snapshot reproduce the tree.
	if _, err := FromRecords(2, tree.Records()); err != nil {
		t.Fatalf("records after churn do not rebuild: %v", err)
	}
}

func TestRemoveLastMemberKeepsRoot(t *testing.T) {
	tree, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	mustJoin(t, tree, "solo")
	rotate(t, tree)
	if !tree.Remove("solo") {
		t.Fatal("remove failed")
	}
	ups := rotate(t, tree)
	// Nobody to deliver to, but the root must survive and rotate.
	if len(ups) != 0 {
		t.Fatalf("%d updates addressed in an empty group", len(ups))
	}
	if tree.Size() != 0 {
		t.Fatal("size not zero")
	}
	mustJoin(t, tree, "next")
	if _, err := tree.RotateDirty(); err != nil {
		t.Fatal(err)
	}
	if _, ok := tree.Path("next"); !ok {
		t.Fatal("rejoin after emptying the tree failed")
	}
}

func TestJoinDuplicateRejected(t *testing.T) {
	tree, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	mustJoin(t, tree, "a")
	if err := tree.Join("a"); err == nil {
		t.Fatal("duplicate join accepted")
	}
	if tree.Remove("ghost") {
		t.Fatal("removed a member that never joined")
	}
}
