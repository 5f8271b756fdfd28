package wire

import (
	"fmt"

	"enclaves/internal/crypto"
)

// This file defines the wire form of the logical-key-hierarchy (LKH)
// rekeying layer: the KeyUpdate frame that delivers one rotated tree-node
// key to a whole subtree with a single seal, and the PathKeys admin body
// (admin.go) that hands a member its complete leaf-to-root path over the
// reliable ack-gated pipeline.
//
// A KeyUpdate says: "tree node Node now has key version Ver; the new key is
// in Box, sealed under the current key of child Under". Members of Under's
// subtree share Under's key, so one ciphertext serves them all — this is
// what turns a membership rekey from O(n) seals into O(log n). The clear
// routing fields (Node, Ver, Under, Epoch, Root) are bound into the AEAD
// additional data of Box, so a relabeled or replayed box fails to open
// under the altered routing. The leader sends a member with an AdminMsg
// unacknowledged only the newest update per node, after the ack. Delivery
// is fire-and-forget: a member that cannot open or has fallen behind sends
// an empty KeySyncReq on its authenticated connection and receives a fresh
// PathKeys admin message.

// KeyUpdatePayload is the content of a KeyUpdate frame.
type KeyUpdatePayload struct {
	Node  uint64 // rotated tree node
	Ver   uint64 // its new key version (receivers apply last-writer-wins)
	Under uint64 // child whose current key seals Box
	Epoch uint64 // group-key epoch this rotation establishes
	Root  bool   // Node is the root: Box holds the new group key
	Box   []byte // the new node key, AEAD-sealed under Under's key
}

// AD returns the additional-data encoding of the clear routing fields,
// which the sealer and opener both bind into Box's AEAD.
func (p KeyUpdatePayload) AD() []byte {
	var b builder
	b.putUint64(p.Node)
	b.putUint64(p.Ver)
	b.putUint64(p.Under)
	b.putUint64(p.Epoch)
	b.putUint8(boolByte(p.Root))
	return b.bytes
}

// Marshal encodes the payload deterministically.
func (p KeyUpdatePayload) Marshal() []byte {
	b := builder{bytes: p.AD()}
	b.putBytes(p.Box)
	return b.bytes
}

// BoxPlaintext is the content of a KeyUpdate's Box: the new node key, raw.
func BoxPlaintext(k crypto.Key) crypto.Plaintext {
	var b crypto.Plaintext
	b.AppendKey(k)
	return b
}

// UnmarshalKeyUpdate decodes a KeyUpdatePayload.
func UnmarshalKeyUpdate(data []byte) (KeyUpdatePayload, error) {
	p := parser{data: data}
	out := KeyUpdatePayload{
		Node:  p.uint64(),
		Ver:   p.uint64(),
		Under: p.uint64(),
		Epoch: p.uint64(),
	}
	flag := p.uint8()
	if p.err == nil && flag > 1 {
		return KeyUpdatePayload{}, fmt.Errorf("%w: key update root flag %d", ErrBadPayload, flag)
	}
	out.Root = flag == 1
	out.Box = p.bytes()
	if err := p.finish(); err != nil {
		return KeyUpdatePayload{}, fmt.Errorf("%w: key update: %v", ErrBadPayload, err)
	}
	return out, nil
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
	raw := p.fixed(crypto.KeySize)
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
