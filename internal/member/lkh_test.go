package member

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"enclaves/internal/crypto"
	"enclaves/internal/lkh"
	"enclaves/internal/wire"
)

// lkhRotations builds alice's side of an arity-2 key tree: the PathKeys of
// her join at epoch 1, then one KeyBoxes per rotation after it — her whole
// path, a join beside her, a departure — each with the rotated nodes of her
// path, bottom-up, boxes sealed as the leader seals them. It returns the
// tree as the last rotation left it.
func lkhRotations(t *testing.T) (*lkh.Tree, wire.PathKeys, []wire.KeyBoxes) {
	t.Helper()
	tree, err := lkh.New(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{userName, "bob", "carol", "dave"} {
		if err := tree.Join(u); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tree.RotateDirty(); err != nil {
		t.Fatal(err)
	}
	entries, _ := tree.Path(userName)
	pk := wire.PathKeys{Epoch: 1, Root: uint64(tree.RootID()), Leaf: uint64(entries[0].Node)}
	for _, e := range entries {
		pk.Entries = append(pk.Entries, wire.PathEntry{Node: uint64(e.Node), Ver: e.Ver, Key: e.Key})
	}
	var bodies []wire.KeyBoxes
	for i, step := range []struct {
		change wire.MemberChange
		mutate func() error
	}{
		{wire.MemberChange{Name: "bob"}, func() error { tree.MarkDirty(userName); return nil }},
		{wire.MemberChange{Name: "erin"}, func() error { return tree.Join("erin") }},
		{wire.MemberChange{Name: "bob", Left: true}, func() error { tree.Remove("bob"); return nil }},
	} {
		if err := step.mutate(); err != nil {
			t.Fatal(err)
		}
		ups, err := tree.RotateDirty()
		if err != nil {
			t.Fatal(err)
		}
		body := wire.KeyBoxes{Epoch: uint64(i) + 2, Changes: []wire.MemberChange{step.change}}
		path := slices.Collect(tree.PathIDs(userName))
		for _, up := range ups {
			if !slices.Contains(path, up.Under) {
				continue
			}
			b := wire.KeyBox{Node: uint64(up.Node), Ver: up.Ver, Under: uint64(up.Under), Epoch: body.Epoch, Root: up.Root}
			if b.Box, err = crypto.SealPlaintext(up.SealKey, wire.BoxPlaintext(up.NewKey), b.AD()); err != nil {
				t.Fatal(err)
			}
			body.Boxes = append(body.Boxes, b)
		}
		bodies = append(bodies, body)
	}
	return tree, pk, bodies
}

// TestFoldedKeyBoxesMatchUnfolded: the leader folds LKH key bodies queued
// behind an unacknowledged AdminMsg into the newest, changes in order and
// the newest box per node. A member given each rotation's KeyBoxes, or the
// one folded body, hears the same changes in order, ends with the same
// view, holds the tree's group key at the last epoch, and holds every key
// of its current path.
func TestFoldedKeyBoxesMatchUnfolded(t *testing.T) {
	tree, pk, bodies := lkhRotations(t)
	run := func(folded bool) ([]Event, []string) {
		f, m := joinThrough(t)
		f.sendAdmin(wire.MemberList{Names: []string{userName, "bob"}})
		f.pump(1)
		nextEvent(t, m)
		f.sendAdmin(pk)
		f.pump(1)
		if ev := nextEvent(t, m); ev.Kind != EventRekey || ev.Epoch != 1 {
			t.Fatalf("PathKeys gave %v, want Rekey(1)", ev)
		}
		if folded {
			// The member acknowledges the heartbeat, but the fake leader reads
			// the ack only once every body is queued behind it.
			f.sendAdmin(wire.Heartbeat{})
			for _, b := range bodies {
				if env, err := f.engine.Send(b); err != nil || env != nil {
					t.Fatalf("Send behind the heartbeat: %v, %v", env, err)
				}
			}
			if got := f.engine.PendingAdmin(); got != 1 {
				t.Fatalf("%d key bodies pending, want 1 folded", got)
			}
			f.pump(2)
		} else {
			for _, b := range bodies {
				f.sendAdmin(b)
				f.pump(1)
			}
		}
		var evs []Event
		for len(evs) < len(bodies) {
			if ev := nextEvent(t, m); ev.Kind != EventRekey {
				evs = append(evs, Event{Kind: ev.Kind, Name: ev.Name})
			}
		}
		gk, epoch := m.GroupKey()
		if want := uint64(len(bodies) + 1); epoch != want || !gk.Equal(tree.RootKey()) {
			t.Errorf("folded=%v: epoch %d, want %d with the tree's root key", folded, epoch, want)
		}
		entries, _ := tree.Path(userName)
		for _, e := range entries {
			if k, ok := m.pathKeys[uint64(e.Node)]; !ok || !k.Equal(e.Key) {
				t.Errorf("folded=%v: node %d's key is not the tree's", folded, e.Node)
			}
		}
		return evs, m.Members()
	}
	want := []Event{{Kind: EventJoined, Name: "bob"}, {Kind: EventJoined, Name: "erin"}, {Kind: EventLeft, Name: "bob"}}
	for _, folded := range []bool{false, true} {
		evs, view := run(folded)
		if !reflect.DeepEqual(evs, want) || !reflect.DeepEqual(view, []string{userName, "erin"}) {
			t.Errorf("folded=%v: events %v and view %v, want %v and [alice erin]", folded, evs, view, want)
		}
	}
}

// TestUnopenableKeyBoxEndsMember: a box that does not open under the key
// the member holds (here its ciphertext is altered) ends the member with
// ErrKeyBox, unacknowledged, and with its epoch where it was.
func TestUnopenableKeyBoxEndsMember(t *testing.T) {
	_, pk, bodies := lkhRotations(t)
	f, m := joinThrough(t)
	f.sendAdmin(pk)
	f.pump(1)
	nextEvent(t, m)
	bad := bodies[0]
	bad.Boxes = append([]wire.KeyBox(nil), bad.Boxes...)
	bad.Boxes[0].Box = append([]byte(nil), bad.Boxes[0].Box...)
	bad.Boxes[0].Box[0] ^= 1
	f.sendAdmin(bad)
	ev := nextEvent(t, m)
	if ev.Kind != EventClosed || !errors.Is(ev.Err, ErrKeyBox) {
		t.Fatalf("event %v, want Closed with ErrKeyBox", ev)
	}
	if m.Epoch() != 1 {
		t.Errorf("epoch %d after the unopenable box, want 1", m.Epoch())
	}
	if _, err := f.conn.Recv(); err == nil {
		t.Error("the member acknowledged the body it could not open")
	}
}
