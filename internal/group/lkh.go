package group

// Logical-key-hierarchy rekeying (see internal/lkh). With Config.LKH set,
// the leader maintains a k-ary key tree whose root key IS the group key:
// a membership rekey rotates only the ~log_k(n) keys on the affected path,
// and each rotated key is delivered to its child subtree with a single
// AEAD seal — one KeyUpdate frame encoded once and fanned out to the
// subtree — instead of the flat path's n per-member re-seals.
//
// Division of labor under the locking discipline: mutations and rotations
// are computed under Leader.mu (pure bookkeeping, no crypto), producing
// lkh.Updates plus a snapshot of each update's target connections; the
// seals, encodes and outbox pushes happen on a dedicated publisher
// goroutine, so AEAD work never holds the control-plane lock (the same
// enqueue-only architecture as admin broadcasts and the AppData relay).
// One publisher goroutine keeps rotations FIFO per outbox; receivers are
// version-gated (last writer wins), so reordering against the ack-gated
// PathKeys pipeline is harmless.
//
// Delivery is fire-and-forget. A member that cannot open an update — it
// missed frames across a reconnect, or an eviction raced — sends
// KeySyncReq on its authenticated connection and gets its complete current
// path back as a PathKeys admin message over the reliable pipeline,
// rate-limited to one resync per member per epoch.

import (
	"errors"

	"enclaves/internal/crypto"
	"enclaves/internal/lkh"
	"enclaves/internal/queue"
	"enclaves/internal/transport"
	"enclaves/internal/wire"
)

// lkhQueueLimit bounds the publisher's job queue. One job per rotation;
// a backlog this deep means the publisher is thoroughly wedged, and
// dropping a job only costs resyncs, never correctness.
const lkhQueueLimit = 1024

// kuJob is one rotation's worth of key updates with the target connections
// captured under Leader.mu at rotation time, so the publisher never touches
// the registry.
type kuJob struct {
	epoch   uint64
	ups     []lkh.Update
	targets [][]*memberConn
}

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

// enqueueKeyUpdatesLocked snapshots each update's target connections and
// hands the job to the publisher goroutine. Caller holds g.mu, so the
// capture linearizes with membership changes; a member that departs before
// the publisher runs just gets pushes onto a closed outbox (no-ops).
func (g *Leader) enqueueKeyUpdatesLocked(ups []lkh.Update) {
	if len(ups) == 0 || g.kuQ == nil {
		return
	}
	job := kuJob{epoch: g.epoch, ups: ups, targets: make([][]*memberConn, len(ups))}
	for i, up := range ups {
		ts := make([]*memberConn, 0, len(up.Members))
		for _, user := range up.Members {
			if s := g.reg.get(user); s != nil {
				ts = append(ts, s)
			}
		}
		job.targets[i] = ts
	}
	if err := g.kuQ.Push(job); errors.Is(err, queue.ErrFull) {
		g.logf("group: key-update publisher backlogged; dropping rotation fan-out (members will resync)")
	}
}

// keyUpdatePublisher drains rotation jobs for the leader's lifetime. A
// single goroutine serializes jobs, so rotations reach each member's outbox
// in the order they happened.
func (g *Leader) keyUpdatePublisher() {
	defer g.wg.Done()
	for {
		job, err := g.kuQ.Pop()
		if err != nil {
			return
		}
		g.publishKeyUpdates(job)
	}
}

// publishKeyUpdates seals and fans out one rotation: per update, one AEAD
// seal of the new node key under the child subtree's current key, one
// envelope encode, and one shared pre-encoded frame pushed to every member
// of the subtree. This is the O(log n): seal count per rotation is
// ~arity · depth regardless of group size.
func (g *Leader) publishKeyUpdates(job kuJob) {
	var overflowed []*memberConn
	for i, up := range job.ups {
		if len(job.targets[i]) == 0 {
			continue
		}
		c, err := crypto.NewCipher(up.SealKey)
		if err != nil {
			g.logf("group: key-update cipher: %v", err)
			continue
		}
		p := wire.KeyUpdatePayload{
			Node:  uint64(up.Node),
			Ver:   up.Ver,
			Under: uint64(up.Under),
			Epoch: job.epoch,
			Root:  up.Root,
		}
		box, err := c.Seal(up.NewKey.Bytes(), p.AD())
		if err != nil {
			g.logf("group: key-update seal: %v", err)
			continue
		}
		p.Box = box
		mLKHSeals.Inc()
		env := wire.Envelope{Type: wire.TypeKeyUpdate, Sender: g.name, Payload: p.Marshal()}
		enc := transport.NewEncoded(env)
		overflowed = append(overflowed, g.fanoutPush(job.targets[i], outFrame{enc: enc})...)
	}
	if len(overflowed) == 0 {
		return
	}
	g.mu.Lock()
	if !g.closed {
		for _, s := range overflowed {
			g.evictLocked(s, "outbox overflow (slow consumer)")
		}
	}
	g.mu.Unlock()
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
