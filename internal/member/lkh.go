package member

// Member-side logical-key-hierarchy state (see internal/lkh and
// internal/group/lkh.go for the leader half). An LKH member holds a bag of
// node keys — its leaf-to-root path — keyed by node ID. The bag needs no
// tree structure: each box of a KeyBoxes body is sealed under a key in the
// bag or under one a box before it opened, and opening it just stores the
// rotated node's new key. The root box's key is the new group key, so a
// KeyBoxes reads as the NewGroupKey of the flat path.
//
// Keys arrive only over the AdminMsg pipeline — PathKeys on join and
// resume, KeyBoxes on every rotation — in order and exactly once, so the
// bag needs no version gate and PathKeys simply resets it. A box that does
// not open means the member's path has diverged from the leader's tree:
// the member ends with ErrKeyBox, and a Session rejoins, which brings a
// fresh PathKeys.

import (
	"errors"
	"fmt"

	"enclaves/internal/crypto"
	"enclaves/internal/wire"
)

// ErrKeyBox is the EventClosed cause of a member handed a key box it cannot
// open. The pipeline delivers every box in order, so it means the member's
// path has diverged from the leader's key tree; a Session rejoins.
var ErrKeyBox = errors.New("member: key box does not open")

// openBoxes opens a KeyBoxes body's boxes in order into the key bag, each
// under the key of its Under: one the member held, or one a box before it
// opened. The AEAD opens run outside m.mu (no crypto under the state
// lock); only this member's frames, one at a time on its stream's Push,
// touch the bag.
func (m *Member) openBoxes(body wire.KeyBoxes) error {
	for _, b := range body.Boxes {
		c, err := crypto.NewCipher(m.pathKeys[b.Under]) // the zero Key, invalid, if not held
		var plain []byte
		if err == nil {
			plain, err = c.Open(b.Box, b.AD())
		}
		var key crypto.Key
		if err == nil {
			key, err = crypto.KeyFromBytes(plain)
		}
		if err != nil {
			return fmt.Errorf("%w: node %d under node %d: %v", ErrKeyBox, b.Node, b.Under, err)
		}
		m.pathKeys[b.Node] = key
		mKeyUpdates.Inc()
	}
	return nil
}

// applyPathKeysLocked resets the key bag to a complete leaf-to-root path
// delivered over the admin pipeline (join or resume) and installs its group
// key. Returns the rekey event to emit, if the path carries the group key.
// Caller holds m.mu.
func (m *Member) applyPathKeysLocked(body wire.PathKeys) Event {
	m.pathKeys = make(map[uint64]crypto.Key, len(body.Entries))
	for _, e := range body.Entries {
		m.pathKeys[e.Node] = e.Key
	}
	gk, ok := body.GroupKey()
	if !ok {
		return Event{}
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
