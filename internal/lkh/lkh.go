// Package lkh implements the logical key hierarchy (LKH) that cuts a
// membership rekey from O(n) to O(log n) re-seals (Wallner/Wong key trees;
// see Malik 2012 for the survey the design follows).
//
// The tree is k-ary. Every member owns one leaf; an internal node's key is
// shared by exactly the members below it; the root key IS the group key.
// A member therefore holds the ~log_k(n) keys on its leaf-to-root path and
// nothing else. When membership changes, only the keys on the affected
// path must rotate, and each rotated key can be delivered with one seal
// per child subtree — the members of a subtree already share the child's
// key, so a single ciphertext serves the whole subtree.
//
// The package is purely the key-tree bookkeeping: placement, pruning,
// versioned rotation, and the description of which new key must be sealed
// under which existing key for which members. Actually sealing and
// delivering the updates is the caller's job (internal/group), which keeps
// this package free of wire and transport concerns and lets rotations be
// computed under the leader lock while seals happen off it.
//
// Rotation strategy. Mutations only mark the affected path dirty;
// RotateDirty later rotates the closure of all dirty nodes (always
// including the root, so every rotation yields a fresh group key) from the
// leaves upward. Every rotated node is re-sealed under each child's
// CURRENT key — for a child that itself just rotated, that is its NEW key.
// Child-sealing is the uniformly safe choice:
//
//   - forward secrecy: a departed member's whole path is dirty, so every
//     key it knew rotates, and each rotated key is sealed only under child
//     keys the departed member never held (its own branch rotated first,
//     bottom-up, to a key it cannot open);
//   - backward secrecy: a joiner opens exactly its own branch — the update
//     for its parent is sealed under its fresh leaf key, the grandparent
//     under the parent's NEW key, and so on up to the root — and learns
//     only post-join keys.
//
// Nodes carry a version, bumped on every rotation and bound into each
// delivered box's additional data, so a box is never mistaken for another
// rotation's. Delivery order is the caller's: internal/group hands each
// member its boxes over the in-order AdminMsg pipeline, bottom-up.
package lkh

import (
	"errors"
	"fmt"
	"iter"
	"sort"

	"enclaves/internal/crypto"
)

// NodeID identifies a tree node. IDs are never reused within a tree, so a
// stale update can never alias a new node.
type NodeID uint64

// DefaultArity is the branching factor used when none is configured.
// Degree 4 balances tree depth (log_4 65536 = 8) against the k seals each
// rotated node costs.
const DefaultArity = 4

// Update describes one rotated key for delivery: node Node now has NewKey
// (version Ver), and the ciphertext for the members below child Under —
// those with Under on their PathIDs — must be sealed under SealKey (Under's
// current key). Root marks the rotation of the root — its NewKey is the new
// group key.
type Update struct {
	Node    NodeID
	Ver     uint64
	NewKey  crypto.Key
	Under   NodeID
	SealKey crypto.Key
	Root    bool
}

// Entry is one node of a member's path: the node, its current version, and
// its current key. PathKeys messages carry these.
type Entry struct {
	Node NodeID
	Ver  uint64
	Key  crypto.Key
}

// Record is the replication form of one node. Parent is zero for the root.
// Leaves carry the owning member in User. Dirty records a rotation still
// owed to this node — it must replicate so a promoted standby rotates
// exactly the paths the crashed primary had pending (a departure leaves its
// surviving ancestors dirty until its rotation; losing that fact to the
// crash would let the departed member keep opening rotations sealed under
// ancestor keys it held).
type Record struct {
	ID     NodeID
	Parent NodeID
	Ver    uint64
	User   string
	Key    crypto.Key
	Dirty  bool
}

type node struct {
	id       NodeID
	ver      uint64
	key      crypto.Key
	parent   *node
	children []*node
	user     string // leaf: owning member; internal: ""
	size     int    // members in this subtree
}

// Tree is the leader's key tree. It is not safe for concurrent use; the
// caller serializes access (the group leader mutates it under Leader.mu).
type Tree struct {
	arity  int
	nextID NodeID
	root   *node
	leaves map[string]*node
	nodes  map[NodeID]*node
	dirty  map[NodeID]*node

	// Change log since the last DrainChanges, for replication deltas.
	changed map[NodeID]bool
	removed []NodeID
}

// New returns an empty tree with the given branching factor (DefaultArity
// if arity < 2). The root is created eagerly with a fresh key: a group of
// zero or one members still has a well-defined group key.
func New(arity int) (*Tree, error) {
	if arity < 2 {
		arity = DefaultArity
	}
	t := &Tree{
		arity:   arity,
		leaves:  make(map[string]*node),
		nodes:   make(map[NodeID]*node),
		dirty:   make(map[NodeID]*node),
		changed: make(map[NodeID]bool),
	}
	root, err := t.newNode(nil, "")
	if err != nil {
		return nil, err
	}
	t.root = root
	return t, nil
}

// Arity returns the branching factor.
func (t *Tree) Arity() int { return t.arity }

// Size returns the number of members in the tree.
func (t *Tree) Size() int { return t.root.size }

// RootID returns the root node's ID.
func (t *Tree) RootID() NodeID { return t.root.id }

// RootKey returns the current root key — the group key.
func (t *Tree) RootKey() crypto.Key { return t.root.key }

// RootVer returns the root key's version.
func (t *Tree) RootVer() uint64 { return t.root.ver }

func (t *Tree) newNode(parent *node, user string) (*node, error) {
	key, err := crypto.NewKey()
	if err != nil {
		return nil, fmt.Errorf("lkh: node key: %w", err)
	}
	t.nextID++
	n := &node{id: t.nextID, ver: 1, key: key, parent: parent, user: user}
	t.nodes[n.id] = n
	t.changed[n.id] = true
	return n, nil
}

// Join places a new leaf for user with a fresh leaf key and marks its path
// dirty; the caller rotates and hands the member its path. The leaf goes under the
// smallest-membership internal node reachable by smallest-child descent;
// when that node is full of leaves, its smallest leaf is demoted under a
// fresh internal node to make room, which keeps the tree within one level
// of balanced without ever moving more than one existing leaf.
func (t *Tree) Join(user string) error {
	if _, ok := t.leaves[user]; ok {
		return fmt.Errorf("lkh: member %q already present", user)
	}
	parent := t.root
	for {
		if len(parent.children) < t.arity {
			break
		}
		child := minChild(parent)
		if child.user != "" {
			// Full of leaves (minChild is a leaf): demote the
			// smallest leaf under a fresh internal node and descend
			// into it.
			internal, err := t.newNode(parent, "")
			if err != nil {
				return err
			}
			internal.size = child.size
			replaceChild(parent, child, internal)
			child.parent = internal
			internal.children = []*node{child}
			t.changed[child.id] = true // reparented
			parent = internal
			break
		}
		parent = child
	}
	leaf, err := t.newNode(parent, user)
	if err != nil {
		return err
	}
	leaf.size = 1
	parent.children = append(parent.children, leaf)
	t.leaves[user] = leaf
	for n := parent; n != nil; n = n.parent {
		n.size++
	}
	t.markPathDirty(leaf)
	return nil
}

func minChild(n *node) *node {
	best := n.children[0]
	for _, c := range n.children[1:] {
		if c.size < best.size {
			best = c
		}
	}
	return best
}

func replaceChild(parent, old, repl *node) {
	for i, c := range parent.children {
		if c == old {
			parent.children[i] = repl
			return
		}
	}
}

// Remove deletes user's leaf, prunes emptied ancestors, and marks the
// surviving path dirty so the next rotation retires every key the departed
// member held. It reports whether the member was present. Single-child
// chains are deliberately not collapsed: correctness needs only that the
// departed member's keys rotate, and restructuring would force extra key
// deliveries for members that did nothing.
func (t *Tree) Remove(user string) bool {
	leaf, ok := t.leaves[user]
	if !ok {
		return false
	}
	delete(t.leaves, user)
	for n := leaf; n != nil; n = n.parent {
		n.size--
	}
	dead := leaf
	for dead.parent != nil && dead.parent != t.root && dead.parent.size == 0 {
		dead = dead.parent
	}
	if p := dead.parent; p != nil {
		p.children = removeChild(p.children, dead)
		t.markPathDirty(p)
	}
	for n := range subtreeNodes(dead) {
		delete(t.nodes, n.id)
		delete(t.dirty, n.id)
		delete(t.changed, n.id)
		t.removed = append(t.removed, n.id)
	}
	return true
}

func removeChild(children []*node, dead *node) []*node {
	for i, c := range children {
		if c == dead {
			return append(children[:i], children[i+1:]...)
		}
	}
	return children
}

func subtreeNodes(n *node) map[*node]bool {
	out := map[*node]bool{n: true}
	var walk func(*node)
	walk = func(x *node) {
		for _, c := range x.children {
			out[c] = true
			walk(c)
		}
	}
	walk(n)
	return out
}

// MarkDirty marks user's path dirty without structural change, scheduling
// it for the next rotation.
func (t *Tree) MarkDirty(user string) bool {
	leaf, ok := t.leaves[user]
	if !ok {
		return false
	}
	t.markPathDirty(leaf)
	return true
}

// markPathDirty marks every INTERNAL node from n (or its parent, if n is a
// leaf) to the root. Leaf keys never rotate — a leaf key is shared with
// exactly one member, so rotating it protects nothing.
func (t *Tree) markPathDirty(n *node) {
	if n.user != "" {
		n = n.parent
	}
	for ; n != nil; n = n.parent {
		t.dirty[n.id] = n
		t.changed[n.id] = true // dirtiness replicates (see Record.Dirty)
	}
}

// Dirty reports whether any rotation is pending.
func (t *Tree) Dirty() bool { return len(t.dirty) > 0 }

// RotateDirty rotates every dirty node plus the root, bottom-up, and
// returns one Update per (rotated node, child) pair — ~k·log_k(n) seals
// for a single-path rotation versus the flat broadcast's n. The dirty set
// is cleared. The last update is always the root's and carries the new
// group key.
func (t *Tree) RotateDirty() ([]Update, error) {
	rotate := make([]*node, 0, len(t.dirty)+1)
	for _, n := range t.dirty {
		rotate = append(rotate, n)
	}
	if _, ok := t.dirty[t.root.id]; !ok {
		rotate = append(rotate, t.root)
	}
	// Bottom-up: deeper nodes first, ties broken by ID for determinism.
	sort.Slice(rotate, func(i, j int) bool {
		di, dj := depth(rotate[i]), depth(rotate[j])
		if di != dj {
			return di > dj
		}
		return rotate[i].id < rotate[j].id
	})
	var updates []Update
	for _, n := range rotate {
		key, err := crypto.NewKey()
		if err != nil {
			return nil, fmt.Errorf("lkh: rotate: %w", err)
		}
		n.key = key
		n.ver++
		t.changed[n.id] = true
		for _, c := range n.children {
			updates = append(updates, Update{
				Node:    n.id,
				Ver:     n.ver,
				NewKey:  n.key,
				Under:   c.id,
				SealKey: c.key,
				Root:    n == t.root,
			})
		}
		// A childless root (empty group) still rotates so the next
		// joiner never sees a pre-departure group key; there is no one
		// to deliver to.
	}
	t.dirty = make(map[NodeID]*node)
	return updates, nil
}

func depth(n *node) int {
	d := 0
	for p := n.parent; p != nil; p = p.parent {
		d++
	}
	return d
}

// Path returns user's leaf-to-root path entries (leaf first, root last).
func (t *Tree) Path(user string) ([]Entry, bool) {
	leaf, ok := t.leaves[user]
	if !ok {
		return nil, false
	}
	var out []Entry
	for n := leaf; n != nil; n = n.parent {
		out = append(out, Entry{Node: n.id, Ver: n.ver, Key: n.key})
	}
	return out, true
}

// PathIDs yields the node IDs of user's leaf-to-root path, leaf first:
// Path without the keys or an allocation. It yields nothing for a user not
// in the tree.
func (t *Tree) PathIDs(user string) iter.Seq[NodeID] {
	return func(yield func(NodeID) bool) {
		for n := t.leaves[user]; n != nil && yield(n.id); n = n.parent {
		}
	}
}

// Leaf returns the ID and key of user's leaf.
func (t *Tree) Leaf(user string) (NodeID, crypto.Key, bool) {
	leaf, ok := t.leaves[user]
	if !ok {
		return 0, crypto.Key{}, false
	}
	return leaf.id, leaf.key, true
}

// Members returns the members in the tree, sorted.
func (t *Tree) Members() []string {
	out := make([]string, 0, len(t.leaves))
	for u := range t.leaves {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// Records exports every node for a replication snapshot.
func (t *Tree) Records() []Record {
	out := make([]Record, 0, len(t.nodes))
	for _, n := range t.nodes {
		out = append(out, t.record(n))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (t *Tree) record(n *node) Record {
	r := Record{ID: n.id, Ver: n.ver, User: n.user, Key: n.key}
	if n.parent != nil {
		r.Parent = n.parent.id
	}
	_, r.Dirty = t.dirty[n.id]
	return r
}

// DrainChanges returns the node records created or modified and the node
// IDs removed since the last drain, for incremental replication.
func (t *Tree) DrainChanges() (upserts []Record, removed []NodeID) {
	for id := range t.changed {
		if n, ok := t.nodes[id]; ok {
			upserts = append(upserts, t.record(n))
		}
	}
	sort.Slice(upserts, func(i, j int) bool { return upserts[i].ID < upserts[j].ID })
	removed = t.removed
	sort.Slice(removed, func(i, j int) bool { return removed[i] < removed[j] })
	t.changed = make(map[NodeID]bool)
	t.removed = nil
	return upserts, removed
}

// FromRecords rebuilds a tree from replicated node records, for standby
// promotion. The records must form a single rooted tree.
func FromRecords(arity int, recs []Record) (*Tree, error) {
	if arity < 2 {
		arity = DefaultArity
	}
	if len(recs) == 0 {
		return New(arity)
	}
	t := &Tree{
		arity:   arity,
		leaves:  make(map[string]*node),
		nodes:   make(map[NodeID]*node),
		dirty:   make(map[NodeID]*node),
		changed: make(map[NodeID]bool),
	}
	for _, r := range recs {
		if _, ok := t.nodes[r.ID]; ok {
			return nil, fmt.Errorf("lkh: duplicate node %d", r.ID)
		}
		if !r.Key.Valid() {
			return nil, fmt.Errorf("lkh: node %d has no key", r.ID)
		}
		n := &node{id: r.ID, ver: r.Ver, key: r.Key, user: r.User}
		t.nodes[r.ID] = n
		if r.Dirty && r.User == "" {
			t.dirty[r.ID] = n
		}
		if r.ID > t.nextID {
			t.nextID = r.ID
		}
	}
	for _, r := range recs {
		n := t.nodes[r.ID]
		if r.Parent == 0 {
			if t.root != nil {
				return nil, errors.New("lkh: multiple roots")
			}
			t.root = n
			continue
		}
		p, ok := t.nodes[r.Parent]
		if !ok {
			return nil, fmt.Errorf("lkh: node %d references missing parent %d", r.ID, r.Parent)
		}
		if p.user != "" {
			return nil, fmt.Errorf("lkh: leaf %d used as parent", p.id)
		}
		n.parent = p
		p.children = append(p.children, n)
		if n.user != "" {
			if _, dup := t.leaves[n.user]; dup {
				return nil, fmt.Errorf("lkh: member %q has two leaves", n.user)
			}
			t.leaves[n.user] = n
		}
	}
	if t.root == nil {
		return nil, errors.New("lkh: no root record")
	}
	// Deterministic child order (records arrive sorted by ID, but be
	// explicit), then recompute sizes and reject cycles/forests.
	for _, n := range t.nodes {
		sort.Slice(n.children, func(i, j int) bool { return n.children[i].id < n.children[j].id })
	}
	if !computeSizes(t.root, map[*node]bool{}) {
		return nil, errors.New("lkh: cyclic node records")
	}
	reached := len(subtreeNodes(t.root))
	if reached != len(t.nodes) {
		return nil, fmt.Errorf("lkh: %d of %d nodes unreachable from root", len(t.nodes)-reached, len(t.nodes))
	}
	return t, nil
}

func computeSizes(n *node, seen map[*node]bool) bool {
	if seen[n] {
		return false
	}
	seen[n] = true
	if n.user != "" {
		n.size = 1
		return true
	}
	n.size = 0
	for _, c := range n.children {
		if !computeSizes(c, seen) {
			return false
		}
		n.size += c.size
	}
	return true
}
