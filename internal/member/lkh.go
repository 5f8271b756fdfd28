package member

// Member-side logical-key-hierarchy state (see internal/lkh and
// internal/group/lkh.go for the leader half). An LKH member holds a bag of
// node keys — its leaf-to-root path — keyed by node ID. The bag needs no
// tree structure: a KeyUpdate is applicable iff it is sealed under a key in
// the bag, and applying it just stores the rotated node's new key. Updates
// are version-gated (last writer wins per node), so duplicated or reordered
// frames are harmless; the update flagged Root also installs the new group
// key, with the same one-epoch grace as a flat NewGroupKey. Behind an
// unacknowledged AdminMsg a member gets only the newest update per node.
//
// KeyUpdate delivery is fire-and-forget. When an update does not fit the
// bag — sealed under a key we never held, or its AEAD fails because an
// earlier rotation was lost — the member asks for a full path resync with
// KeySyncReq, rate-limited to one request per observed target epoch
// (mirroring the leader's one-answer-per-epoch limit). The PathKeys reply
// arrives on the reliable admin pipeline and resets the bag wholesale.

import (
	"enclaves/internal/crypto"
	"enclaves/internal/wire"
)

// pathEntry is one held node key with the version that wrote it.
type pathEntry struct {
	ver uint64
	key crypto.Key
}

// handleKeyUpdate applies one subtree key rotation. The AEAD open runs
// outside m.mu (lock discipline: no crypto under the state lock); only this
// member's frames, one at a time on its stream's Push, write the bag, so
// the version gate still holds at the store.
func (m *Member) handleKeyUpdate(env wire.Envelope) {
	p, err := wire.UnmarshalKeyUpdate(env.Payload)
	if err != nil {
		m.reject()
		return
	}
	m.mu.Lock()
	if m.ended.Load() || m.pathKeys == nil {
		// Not an LKH member (no PathKeys ever arrived): junk to tolerate.
		m.mu.Unlock()
		m.reject()
		return
	}
	if cur, ok := m.pathKeys[p.Node]; ok && cur.ver >= p.Ver {
		m.mu.Unlock()
		return // duplicate or superseded rotation; last writer already won
	}
	under, held := m.pathKeys[p.Under]
	m.mu.Unlock()
	if !held {
		// Sealed under a key we do not hold. Either the update is not for
		// our subtree (the leader's targeting failed across a race) or our
		// path is stale; a resync resolves both.
		m.requestKeySync(p.Epoch)
		return
	}
	c, err := crypto.NewCipher(under.key)
	if err != nil {
		m.reject()
		return
	}
	plain, err := c.Open(p.Box, p.AD())
	if err != nil {
		// We hold a key for that node but the wrong generation: a prior
		// rotation never reached us. Repair the whole path.
		m.reject()
		m.requestKeySync(p.Epoch)
		return
	}
	key, err := crypto.KeyFromBytes(plain)
	if err != nil {
		m.reject()
		return
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ended.Load() {
		return
	}
	m.pathKeys[p.Node] = pathEntry{ver: p.Ver, key: key}
	mKeyUpdates.Inc()
	if p.Root && (p.Epoch > m.epoch || !m.groupKey.Valid()) {
		m.installGroupKeyLocked(key, p.Epoch)
		m.events.Push(Event{Kind: EventRekey, Epoch: p.Epoch})
		mEvents.Inc()
	}
}

// applyPathKeysLocked resets the key bag to a complete leaf-to-root path
// delivered over the admin pipeline (join, resync, or post-rotation
// top-up). Entries the member already holds at a NEWER version survive the
// reset: a KeyUpdate that raced ahead of the PathKeys must not be rolled
// back. Returns the rekey event to emit, if the path advanced the group
// key. Caller holds m.mu.
func (m *Member) applyPathKeysLocked(body wire.PathKeys) Event {
	fresh := make(map[uint64]pathEntry, len(body.Entries))
	for _, e := range body.Entries {
		if cur, ok := m.pathKeys[e.Node]; ok && cur.ver > e.Ver {
			fresh[e.Node] = cur
			continue
		}
		fresh[e.Node] = pathEntry{ver: e.Ver, key: e.Key}
	}
	m.pathKeys = fresh
	gk, ok := body.GroupKey()
	if !ok || body.Epoch < m.epoch {
		return Event{}
	}
	if m.groupKey.Valid() && body.Epoch == m.epoch && gk.Equal(m.groupKey) {
		return Event{} // resync confirmed the key we already hold
	}
	m.installGroupKeyLocked(gk, body.Epoch)
	return Event{Kind: EventRekey, Epoch: body.Epoch}
}

// installGroupKeyLocked rotates the member's group key, retaining the
// superseded key for the one-epoch decryption grace and precomputing the
// AEAD once per rekey. Caller holds m.mu.
func (m *Member) installGroupKeyLocked(key crypto.Key, epoch uint64) {
	if m.groupKey.Valid() {
		m.prevKey = m.groupKey
		m.prevEpoch = m.epoch
		m.prevCipher = m.groupCipher
	}
	m.groupKey = key
	m.epoch = epoch
	if key.Valid() {
		select {
		case <-m.ready:
		default:
			close(m.ready) // the first key: wake WaitReady
		}
	}
	// A bad key from a confused leader leaves the cipher nil and SendData
	// reports ErrNoGroupKey.
	m.groupCipher, _ = crypto.NewCipher(key)
}

// requestKeySync asks the leader for a full path resync, at most once per
// observed target epoch — a burst of unopenable updates from one missed
// rotation costs one round trip, not one per frame.
func (m *Member) requestKeySync(target uint64) {
	m.mu.Lock()
	if m.ended.Load() || m.syncEpoch >= target {
		m.mu.Unlock()
		return
	}
	m.syncEpoch = target
	m.mu.Unlock()
	mKeySyncReqs.Inc()
	m.conn.Send(wire.Envelope{Type: wire.TypeKeySyncReq, Sender: m.name, Receiver: m.leader})
}
