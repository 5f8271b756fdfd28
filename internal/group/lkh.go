package group

// Logical-key-hierarchy rekeying (see internal/lkh). With Config.LKH set,
// the leader maintains a k-ary key tree whose root key IS the group key:
// a membership rekey rotates only the ~log_k(n) keys on the affected path,
// and each rotated key is delivered to its child subtree with a single
// AEAD seal — one KeyUpdate frame encoded once and fanned out to the
// subtree — instead of the flat path's n per-member re-seals.
//
// Mutations and rotations are computed under Leader.mu (no crypto), and
// rekeyLocked hands each lkh.Update, as one shared keyUpdate frame, to its
// subtree before the lock is released: onto a member's outbox, or, while
// an AdminMsg to it is unacknowledged, into its held list, where a newer
// update to the node replaces it until the ack pushes the list onto the
// outbox. A busy member gets the newest key per node once per ack round
// trip, as with a flat NewGroupKey. The first drain to reach a frame seals
// it once, off the lock, after the sealFrame wait admin bodies take. The
// joiner of a rotation is skipped: sendCurrentKeysLocked gives it the whole
// path. Receivers are version-gated (last writer wins), so reordering
// against the ack-gated PathKeys pipeline is harmless.
//
// Delivery is fire-and-forget. A member that cannot open an update — it
// missed frames across a reconnect, or an eviction raced — sends
// KeySyncReq on its authenticated connection and gets its complete current
// path back as a PathKeys admin message over the reliable pipeline,
// rate-limited to one resync per member per epoch.

import (
	"slices"
	"sync"

	"enclaves/internal/crypto"
	"enclaves/internal/lkh"
	"enclaves/internal/transport"
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

// keyUpdate is one rotated node key on its way to a child subtree: the
// KeyUpdate payload without its box, and the two keys that make the box.
// The same *keyUpdate sits on every outbox, or held list, of the subtree;
// encode seals it for all of them.
type keyUpdate struct {
	p               wire.KeyUpdatePayload
	newKey, sealKey crypto.Key
	once            sync.Once
	enc             *transport.Encoded
}

// queueKeyUpdatesLocked puts each update of one rotation on the outboxes
// of its subtree, all but skip's, or holds it for a busy member. Caller
// holds g.mu, so when the rotation returns every idle target's copy is
// queued, ahead of anything a member can seal under the new keys. An update
// whose only target is skip is never sealed.
func (g *Leader) queueKeyUpdatesLocked(ups []lkh.Update, skip string) {
	var overflowed []*memberConn
	for _, up := range ups {
		ku := &keyUpdate{newKey: up.NewKey, sealKey: up.SealKey, p: wire.KeyUpdatePayload{
			Node: uint64(up.Node), Ver: up.Ver, Under: uint64(up.Under), Epoch: g.epoch, Root: up.Root,
		}}
		for _, user := range up.Members {
			if s := g.reg.get(user); s != nil && user != skip && !s.hold(ku) {
				if g.pushFrameTo(s, outFrame{ku: ku}) {
					overflowed = append(overflowed, s)
				}
			}
		}
	}
	for _, s := range overflowed {
		g.evictLocked(s, "outbox overflow (slow consumer)")
	}
}

// hold keeps ku back while an AdminMsg to s is unacknowledged, replacing an
// older update to its node, and reports whether it did. A rotation sends a
// member a suffix of its path, bottom-up, so appending the newer entry
// keeps every update behind the key that seals it.
func (s *memberConn) hold(ku *keyUpdate) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.unacked) == 0 {
		return false
	}
	n := len(s.held)
	s.held = append(slices.DeleteFunc(s.held, func(h *keyUpdate) bool { return h.p.Node == ku.p.Node }), ku)
	mLKHFolded.Add(uint64(n + 1 - len(s.held)))
	return true
}

// encode seals the new node key under the child subtree's key and encodes
// the frame, on the first call only — one AEAD seal per update whatever the
// subtree's size, which is the O(log n) — and returns the shared bytes, or
// nil if sealing failed. Callers hold no lock.
func (u *keyUpdate) encode(g *Leader) *transport.Encoded {
	u.once.Do(func() {
		c, err := crypto.NewCipher(u.sealKey)
		if err != nil {
			g.logf("group: key-update cipher: %v", err)
			return
		}
		box, err := c.SealPlaintext(wire.BoxPlaintext(u.newKey), u.p.AD())
		if err != nil {
			g.logf("group: key-update seal: %v", err)
			return
		}
		u.p.Box = box
		mLKHSeals.Inc()
		u.enc = transport.NewEncoded(wire.Envelope{Type: wire.TypeKeyUpdate, Sender: g.name, Payload: u.p.Marshal()})
	})
	return u.enc
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

// handleKeySync answers a member's KeySyncReq with its complete current
// path over the reliable admin pipeline, at most once per member per epoch
// (a flood of requests costs the group nothing beyond the first answer).
func (g *Leader) handleKeySync(s *memberConn) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed || g.tree == nil || g.reg.get(s.user) != s {
		return
	}
	s.mu.Lock()
	served := s.syncedEpoch >= g.epoch
	if !served {
		s.syncedEpoch = g.epoch
	}
	s.mu.Unlock()
	if served {
		return
	}
	pk, ok := g.pathKeysLocked(s.user)
	if !ok {
		return
	}
	mKeySyncs.Inc()
	g.logf("group: resyncing path keys for %s at epoch %d", s.user, g.epoch)
	g.sendAdminLocked(s, pk)
}
