package wire

import (
	"bytes"
	"testing"

	"enclaves/internal/crypto"
)

func testKey(t *testing.T) crypto.Key {
	t.Helper()
	k, err := crypto.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestKeyUpdatePayloadRoundTrip(t *testing.T) {
	in := KeyUpdatePayload{
		Node:  12,
		Ver:   7,
		Under: 5,
		Epoch: 33,
		Root:  true,
		Box:   bytes.Repeat([]byte{0xCD}, 60),
	}
	out, err := UnmarshalKeyUpdate(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if out.Node != in.Node || out.Ver != in.Ver || out.Under != in.Under ||
		out.Epoch != in.Epoch || out.Root != in.Root || !bytes.Equal(out.Box, in.Box) {
		t.Fatalf("round trip changed payload: %+v != %+v", out, in)
	}
	// The AD prefix must cover every clear routing field, so a relabeled
	// box cannot be re-routed: different routing, different AD.
	other := in
	other.Under = 6
	if bytes.Equal(in.AD(), other.AD()) {
		t.Fatal("AD does not bind the Under field")
	}
}

func TestKeyUpdateSealOpenBindsRouting(t *testing.T) {
	key := testKey(t)
	newKey := testKey(t)
	p := KeyUpdatePayload{Node: 3, Ver: 2, Under: 9, Epoch: 4}
	box, err := crypto.SealPlaintext(key, BoxPlaintext(newKey), p.AD())
	if err != nil {
		t.Fatal(err)
	}
	p.Box = box
	if _, err := crypto.Open(key, p.Box, p.AD()); err != nil {
		t.Fatalf("open own seal: %v", err)
	}
	// Tampering with any clear field must break the open.
	for _, mutate := range []func(*KeyUpdatePayload){
		func(q *KeyUpdatePayload) { q.Node++ },
		func(q *KeyUpdatePayload) { q.Ver++ },
		func(q *KeyUpdatePayload) { q.Under++ },
		func(q *KeyUpdatePayload) { q.Epoch++ },
		func(q *KeyUpdatePayload) { q.Root = !q.Root },
	} {
		q := p
		mutate(&q)
		if _, err := crypto.Open(key, q.Box, q.AD()); err == nil {
			t.Fatal("tampered routing field accepted")
		}
	}
}

func TestPathKeysAdminBodyRoundTrip(t *testing.T) {
	in := PathKeys{
		Epoch: 5,
		Root:  1,
		Leaf:  9,
		Entries: []PathEntry{
			{Node: 9, Ver: 1, Key: testKey(t)},
			{Node: 4, Ver: 3, Key: testKey(t)},
			{Node: 1, Ver: 6, Key: testKey(t)},
		},
	}
	body, err := UnmarshalAdminBody(adminBody(in))
	if err != nil {
		t.Fatal(err)
	}
	out, ok := body.(PathKeys)
	if !ok {
		t.Fatalf("decoded %T", body)
	}
	if out.Epoch != in.Epoch || out.Root != in.Root || out.Leaf != in.Leaf || len(out.Entries) != len(in.Entries) {
		t.Fatalf("round trip changed body: %+v", out)
	}
	for i := range in.Entries {
		if out.Entries[i].Node != in.Entries[i].Node || out.Entries[i].Ver != in.Entries[i].Ver ||
			!out.Entries[i].Key.Equal(in.Entries[i].Key) {
			t.Fatalf("entry %d changed", i)
		}
	}
	gk, ok := out.GroupKey()
	if !ok || !gk.Equal(in.Entries[2].Key) {
		t.Fatal("GroupKey did not find the root entry")
	}
	if _, ok := (PathKeys{Root: 8}).GroupKey(); ok {
		t.Fatal("GroupKey invented a key")
	}
}

func TestPathKeysRejectsOversizedPath(t *testing.T) {
	var b builder
	b.putUint8(uint8(AdminPathKeys))
	b.putUint64(1)
	b.putUint64(1)
	b.putUint64(2)
	b.putUint64(MaxPathEntries + 1)
	if _, err := UnmarshalAdminBody(b.bytes); err == nil {
		t.Fatal("oversized path accepted")
	}
}

func TestReplLKHDeltaRoundTrip(t *testing.T) {
	in := ReplDeltaPayload{
		Primary:  "leader",
		Standby:  "standby",
		Kind:     ReplLKH,
		AuditSeq: 17,
		Nodes: []ReplLKHNode{
			{ID: 1, Parent: 0, Ver: 4, Key: testKey(t), Dirty: true},
			{ID: 7, Parent: 1, Ver: 2, User: "alice", Key: testKey(t)},
		},
		Removed: []uint64{3, 5},
	}
	out, err := UnmarshalReplDelta(plain(in.Marshal()))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Nodes) != 2 || len(out.Removed) != 2 {
		t.Fatalf("round trip changed delta: %+v", out)
	}
	for i := range in.Nodes {
		if out.Nodes[i].ID != in.Nodes[i].ID || out.Nodes[i].Parent != in.Nodes[i].Parent ||
			out.Nodes[i].Ver != in.Nodes[i].Ver || out.Nodes[i].User != in.Nodes[i].User ||
			!out.Nodes[i].Key.Equal(in.Nodes[i].Key) || out.Nodes[i].Dirty != in.Nodes[i].Dirty {
			t.Fatalf("node %d changed", i)
		}
	}
	if out.Removed[0] != 3 || out.Removed[1] != 5 {
		t.Fatalf("removals changed: %v", out.Removed)
	}
}

func TestReplStateCarriesTree(t *testing.T) {
	in := ReplStatePayload{
		Standby:  "s",
		Primary:  "p",
		Epoch:    3,
		GroupKey: testKey(t),
		AuditSeq: 12,
		Members:  []ReplMember{{User: "alice", SessionKey: testKey(t), Seq: 2}},
		LKHArity: 4,
		Tree: []ReplLKHNode{
			{ID: 1, Ver: 2, Key: testKey(t)},
			{ID: 2, Parent: 1, Ver: 1, User: "alice", Key: testKey(t)},
		},
	}
	out, err := UnmarshalReplState(plain(in.Marshal()))
	if err != nil {
		t.Fatal(err)
	}
	if out.LKHArity != 4 || len(out.Tree) != 2 {
		t.Fatalf("tree state lost: %+v", out)
	}
	if !out.Tree[0].Key.Equal(in.Tree[0].Key) || out.Tree[1].User != "alice" {
		t.Fatal("tree records changed")
	}
}
