package wire

import (
	"encoding/binary"
	"fmt"
	"slices"

	"enclaves/internal/crypto"
)

// This file defines the wire form of the logical-key-hierarchy (LKH)
// rekeying layer: the KeyBoxes admin body that carries a rotation's keys
// to one member, beside PathKeys (admin.go), which hands a member its whole
// path on join and resume. Both ride the AdminMsg pipeline under K_a, so
// they arrive authenticated, in order and exactly once (Section 5.4).
//
// A KeyBox is one rotated node's new key, sealed under the current key of
// its child Under. Under's subtree shares that key, so the leader seals
// each box once and the same bytes ride every subtree member's AdminMsg:
// O(log n) seals per rekey, not O(n). The clear routing fields are bound
// into the box's AEAD additional data, so a box moved to another node,
// version or epoch fails to open.

// KeyBox is one rotated tree-node key in a KeyBoxes body.
type KeyBox struct {
	Node  uint64 // rotated tree node
	Ver   uint64 // its new key version
	Under uint64 // child whose current key seals Box
	Epoch uint64 // group-key epoch the box's rotation established
	Root  bool   // Node is the root: Box holds the new group key
	Box   []byte // the new node key, AEAD-sealed under Under's key
}

// AD returns the additional-data encoding of the clear routing fields,
// which the sealer and opener both bind into Box's AEAD.
func (b KeyBox) AD() []byte {
	ad := make([]byte, 0, 4*8+1)
	for _, v := range [...]uint64{b.Node, b.Ver, b.Under, b.Epoch} {
		ad = binary.BigEndian.AppendUint64(ad, v)
	}
	return append(ad, boolByte(b.Root))
}

// BoxPlaintext is the content of a KeyBox's Box: the new node key, raw.
func BoxPlaintext(k crypto.Key) crypto.Plaintext {
	var b crypto.Plaintext
	b.AppendKey(k)
	return b
}

// KeyBoxes delivers a rotation's keys to one member: the changes the
// rotation answers, as in a NewGroupKey, then the rotated nodes of the
// member's path, bottom-up, the Root box holding the group key of Epoch.
// Each box's Under is a key the member holds or one a box before it opens.
// core.LeaderSession.Send folds bodies queued behind one unacknowledged
// AdminMsg: changes appended up to MaxDeltaNames, boxes newest-wins per node.
type KeyBoxes struct {
	Epoch   uint64
	Changes []MemberChange
	Boxes   []KeyBox
}

// AdminKind implements AdminBody.
func (KeyBoxes) AdminKind() AdminKind { return AdminKeyBoxes }

func (b KeyBoxes) String() string {
	return fmt.Sprintf("KeyBoxes(epoch=%d, %v, %d boxes)", b.Epoch, b.Changes, len(b.Boxes))
}

// putKeyBoxes encodes a KeyBoxes body after its kind tag: the epoch, the
// changes, a one-byte box count, then each box as its AD fields and Box.
func putKeyBoxes(b *crypto.Plaintext, v KeyBoxes) {
	b.AppendUint64(v.Epoch)
	putChanges(b, v.Changes)
	b.AppendUint8(uint8(len(v.Boxes)))
	for _, k := range v.Boxes {
		b.AppendUint64(k.Node)
		b.AppendUint64(k.Ver)
		b.AppendUint64(k.Under)
		b.AppendUint64(k.Epoch)
		b.AppendUint8(boolByte(k.Root))
		b.AppendBytes(k.Box)
	}
}

// parseKeyBoxes decodes a KeyBoxes body after its kind tag, refusing more
// than MaxPathEntries boxes before any is read and a root flag that is not
// 0 or 1.
func parseKeyBoxes(p *parser) (KeyBoxes, error) {
	out := KeyBoxes{Epoch: p.uint64()}
	changes, err := parseChanges(p)
	if err != nil {
		return KeyBoxes{}, err
	}
	out.Changes = changes
	n := p.uint8()
	if n > MaxPathEntries {
		return KeyBoxes{}, fmt.Errorf("%d key boxes", n)
	}
	out.Boxes = slices.Grow([]KeyBox(nil), int(n)) // nil when empty
	for ; n > 0 && p.err == nil; n-- {
		k := KeyBox{Node: p.uint64(), Ver: p.uint64(), Under: p.uint64(), Epoch: p.uint64()}
		if flag := p.uint8(); flag > 1 {
			p.fail() // non-canonical root flag
		} else {
			k.Root = flag == 1
		}
		k.Box = p.bytes()
		out.Boxes = append(out.Boxes, k)
	}
	return out, p.finish()
}

// MaxReplNodes bounds the replicated key tree: a tree over MaxReplMembers
// leaves has at most 2·n internal-plus-leaf nodes (plus the root).
const MaxReplNodes = 2*MaxReplMembers + 1

// ReplLKHNode is the replication form of one key-tree node (leaf or
// internal). Parent is zero for the root; User is empty for internal
// nodes. Dirty marks a rotation the primary still owed this node — a
// promoted standby rotates exactly the dirty paths, preserving forward
// secrecy for departures whose rotation the crash kept from the standby.
type ReplLKHNode struct {
	ID     uint64
	Parent uint64
	Ver    uint64
	User   string
	Key    crypto.Key
	Dirty  bool
}

func appendReplLKHNode(b *crypto.Plaintext, n ReplLKHNode) {
	b.AppendUint64(n.ID)
	b.AppendUint64(n.Parent)
	b.AppendUint64(n.Ver)
	b.AppendString(n.User)
	b.AppendKey(n.Key)
	b.AppendUint8(boolByte(n.Dirty))
}

func parseReplLKHNode(p *parser) (ReplLKHNode, error) {
	n := ReplLKHNode{
		ID:     p.uint64(),
		Parent: p.uint64(),
		Ver:    p.uint64(),
		User:   p.string(),
	}
	raw := p.take(crypto.KeySize)
	flag := p.uint8()
	if p.err != nil {
		return ReplLKHNode{}, p.err
	}
	if flag > 1 {
		return ReplLKHNode{}, fmt.Errorf("node dirty flag %d", flag)
	}
	n.Dirty = flag == 1
	k, err := crypto.KeyFromBytes(raw)
	if err != nil {
		return ReplLKHNode{}, err
	}
	n.Key = k
	return n, nil
}
