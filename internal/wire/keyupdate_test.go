package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
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

func TestKeyBoxesRoundTrip(t *testing.T) {
	in := KeyBoxes{
		Epoch:   33,
		Changes: []MemberChange{{Name: "bob", Left: true}, {Name: "carol"}},
		Boxes: []KeyBox{
			{Node: 5, Ver: 2, Under: 9, Epoch: 31, Box: bytes.Repeat([]byte{0xAB}, 60)},
			{Node: 12, Ver: 7, Under: 5, Epoch: 33, Root: true, Box: bytes.Repeat([]byte{0xCD}, 60)},
		},
	}
	body, err := UnmarshalAdminBody(adminBody(in))
	if err != nil {
		t.Fatal(err)
	}
	if out, ok := body.(KeyBoxes); !ok || !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip changed body: %+v != %+v", body, in)
	}
	// The AD must cover every clear routing field, so a relabeled box
	// cannot be re-routed: different routing, different AD.
	other := in.Boxes[1]
	other.Under = 6
	if bytes.Equal(in.Boxes[1].AD(), other.AD()) {
		t.Fatal("AD does not bind the Under field")
	}
}

func TestKeyUpdateSealOpenBindsRouting(t *testing.T) {
	key := testKey(t)
	newKey := testKey(t)
	p := KeyBox{Node: 3, Ver: 2, Under: 9, Epoch: 4}
	box, err := crypto.SealPlaintext(key, BoxPlaintext(newKey), p.AD())
	if err != nil {
		t.Fatal(err)
	}
	p.Box = box
	if _, err := crypto.Open(key, p.Box, p.AD()); err != nil {
		t.Fatalf("open own seal: %v", err)
	}
	// Tampering with any clear field must break the open.
	for _, mutate := range []func(*KeyBox){
		func(q *KeyBox) { q.Node++ },
		func(q *KeyBox) { q.Ver++ },
		func(q *KeyBox) { q.Under++ },
		func(q *KeyBox) { q.Epoch++ },
		func(q *KeyBox) { q.Root = !q.Root },
	} {
		q := p
		mutate(&q)
		if _, err := crypto.Open(key, q.Box, q.AD()); err == nil {
			t.Fatal("tampered routing field accepted")
		}
	}
}

// TestKeyBoxesRejectsMalformed: more boxes than MaxPathEntries are refused
// before any is read, and a root flag other than 0 or 1 is refused.
func TestKeyBoxesRejectsMalformed(t *testing.T) {
	var b []byte
	b = append(b, uint8(AdminKeyBoxes))
	b = binary.BigEndian.AppendUint64(b, 1)
	b = append(b, 0)
	b = append(b, MaxPathEntries+1)
	if _, err := UnmarshalAdminBody(b); !errors.Is(err, ErrBadPayload) {
		t.Errorf("oversized box list: err = %v", err)
	}
	flag := adminBody(KeyBoxes{Epoch: 1, Boxes: []KeyBox{{Node: 1}}})
	flag[len(flag)-5] = 2
	if _, err := UnmarshalAdminBody(flag); !errors.Is(err, ErrBadPayload) {
		t.Errorf("root flag 2: err = %v", err)
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
	var b []byte
	b = append(b, uint8(AdminPathKeys))
	b = binary.BigEndian.AppendUint64(b, 1)
	b = binary.BigEndian.AppendUint64(b, 1)
	b = binary.BigEndian.AppendUint64(b, 2)
	b = binary.BigEndian.AppendUint64(b, MaxPathEntries+1)
	if _, err := UnmarshalAdminBody(b); err == nil {
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
	data, _ := opened(in.Marshal())
	out, err := UnmarshalReplDelta(data)
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
	data, _ := opened(in.Marshal())
	out, err := UnmarshalReplState(data)
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
