package group

// Logical-key-hierarchy rekeying (see internal/lkh). With Config.LKH set,
// the leader maintains a k-ary key tree whose root key IS the group key:
// a membership rekey rotates only the ~log_k(n) keys on the affected path,
// and each rotated key reaches its child subtree under a single AEAD seal
// instead of the flat path's n per-member re-seals.
//
// Mutations and rotations are computed under Leader.mu (no crypto), and
// rekeyLocked gives each member, before the lock is released, one KeyBoxes
// on its outbox: the change the rotation answers and the member's deepest
// rotated box, linked to the box above it. The first drain to reach a box
// seals it and builds its chain to the root off the lock, after the
// sealFrame wait: box lists are built once per subtree, not only sealed
// once. The body then rides the AdminMsg pipeline like a flat NewGroupKey,
// and folds like one (into a new array) behind an unacknowledged AdminMsg.
// A rotation's joiner is skipped (its boxes are never sealed):
// sendCurrentKeysLocked gives it the whole path.
//
// The pipeline delivers in order and exactly once, so a member holds the
// key each box is sealed under; one that fails to open ends the member with
// member.ErrKeyBox, and a member.Session rejoins and gets its path.

import (
	"slices"
	"sync"

	"enclaves/internal/crypto"
	"enclaves/internal/lkh"
	"enclaves/internal/wire"
)

func toReplNode(r lkh.Record) wire.ReplLKHNode {
	return wire.ReplLKHNode{
		ID: uint64(r.ID), Parent: uint64(r.Parent), Ver: r.Ver,
		User: r.User, Key: r.Key, Dirty: r.Dirty,
	}
}

func fromReplNode(n wire.ReplLKHNode) lkh.Record {
	return lkh.Record{
		ID: lkh.NodeID(n.ID), Parent: lkh.NodeID(n.Parent), Ver: n.Ver,
		User: n.User, Key: n.Key, Dirty: n.Dirty,
	}
}

// keyBox is one rotated node key on its way to a child subtree: the box
// entry, its Box empty until sealed, the two keys that make the box, the
// box to its node's parent (nil at the root), and, once sealed, its chain.
type keyBox struct {
	b               wire.KeyBox
	newKey, sealKey crypto.Key
	up              *keyBox
	once            sync.Once
	chain           []wire.KeyBox
}

// queueKeyBoxesLocked gives every member but skip its KeyBoxes for one
// rotation, carrying changes. Caller holds g.mu, so when the rotation
// returns every member's copy is queued, ahead of anything a member can
// seal under the new keys. Read top-down, ups give a box's parent before
// the box. A member's box is the deepest one on its leaf-to-root path: the
// first its walk up the tree meets.
func (g *Leader) queueKeyBoxesLocked(ups []lkh.Update, changes []wire.MemberChange, skip string) {
	under := make(map[lkh.NodeID]*keyBox, len(ups))
	for _, up := range slices.Backward(ups) {
		under[up.Under] = &keyBox{newKey: up.NewKey, sealKey: up.SealKey, up: under[up.Node], b: wire.KeyBox{
			Node: uint64(up.Node), Ver: up.Ver, Under: uint64(up.Under), Epoch: g.epoch, Root: up.Root,
		}}
	}
	var body wire.AdminBody = wire.KeyBoxes{Epoch: g.epoch, Changes: changes}
	g.broadcastLocked(skip, func(s *memberConn) outFrame {
		f := outFrame{body: body}
		for id := range g.tree.PathIDs(s.user) {
			if f.box = under[id]; f.box != nil {
				break
			}
		}
		return f
	})
}

// sealChain returns body with k's chain as its Boxes, built on the first
// call: k's box sealed — the new node key under the child subtree's key,
// once whatever the subtree's size, which is the O(log n) — then the chain
// above it, one array for every member below k. A box that fails to seal
// travels empty and fails to open at the member. Callers hold no lock.
func (g *Leader) sealChain(body wire.KeyBoxes, k *keyBox) wire.KeyBoxes {
	k.once.Do(func() {
		var up []wire.KeyBox
		if k.up != nil {
			up = g.sealChain(body, k.up).Boxes
		}
		c, err := crypto.NewCipher(k.sealKey)
		if err == nil {
			k.b.Box, err = c.SealPlaintext(wire.BoxPlaintext(k.newKey), k.b.AD())
		}
		if err != nil {
			g.logf("group: key box seal: %v", err)
		} else {
			mLKHSeals.Inc()
		}
		k.chain = append(append(make([]wire.KeyBox, 0, 1+len(up)), k.b), up...)
	})
	body.Boxes = k.chain
	return body
}

// pathKeysLocked builds the PathKeys admin body for one member: its
// complete leaf-to-root key path at the current epoch. Caller holds g.mu
// and g.tree is non-nil.
func (g *Leader) pathKeysLocked(user string) (wire.PathKeys, bool) {
	entries, ok := g.tree.Path(user)
	if !ok {
		return wire.PathKeys{}, false
	}
	pk := wire.PathKeys{
		Epoch: g.epoch,
		Root:  uint64(g.tree.RootID()),
		Leaf:  uint64(entries[0].Node),
	}
	for _, e := range entries {
		pk.Entries = append(pk.Entries, wire.PathEntry{Node: uint64(e.Node), Ver: e.Ver, Key: e.Key})
	}
	return pk, true
}

// sendCurrentKeysLocked hands one member the current key material: its full
// leaf-to-root path under LKH, the flat group key otherwise (or when the
// tree holds no path for it — a resumed member must get its ResumeAck).
func (g *Leader) sendCurrentKeysLocked(s *memberConn) {
	if g.tree != nil {
		if pk, ok := g.pathKeysLocked(s.user); ok {
			g.sendAdminLocked(s, pk)
			return
		}
	}
	g.sendAdminLocked(s, wire.NewGroupKey{Epoch: g.epoch, Key: g.groupKey})
}

// joinTreeLocked ensures an admitted member has a leaf and replicates the
// structural change. A new leaf marks its path dirty for the next rotation.
// A password rejoin whose old leaf survived keeps the leaf and re-dirties
// the path; a resumed member's surviving leaf is left clean — it held those
// keys legitimately and goes on holding them.
func (g *Leader) joinTreeLocked(user string, resumed bool) {
	if g.tree == nil {
		return
	}
	if err := g.tree.Join(user); err != nil && !resumed {
		g.tree.MarkDirty(user)
	}
	g.replTreeLocked()
}

// leaveTreeLocked prunes a departed member's leaf and replicates the prune
// plus the surviving path's dirtiness immediately — before any rotation —
// so a promotion in the gap still knows which keys the departed member
// held.
func (g *Leader) leaveTreeLocked(user string) {
	if g.tree == nil {
		return
	}
	if g.tree.Remove(user) {
		g.replTreeLocked()
	}
}

// replTreeLocked drains the tree's own change list into one tree-changed
// record. The drain happens regardless of replication so the list never
// grows unbounded.
func (g *Leader) replTreeLocked() {
	ups, removed := g.tree.DrainChanges()
	if g.repl == nil || (len(ups) == 0 && len(removed) == 0) {
		return
	}
	var d wire.ReplDeltaPayload
	for _, r := range ups {
		d.Nodes = append(d.Nodes, toReplNode(r))
	}
	for _, id := range removed {
		d.Removed = append(d.Removed, uint64(id))
	}
	g.log.record(change{kind: changeTree, repl: d})
}
