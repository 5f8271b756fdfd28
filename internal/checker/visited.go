package checker

import "sync"

// visitedSet is the seen-set of the parallel BFS: canonical state key ->
// claimed *Node on a sync.Map, whose hash-trie answers the common case — a
// state already seen — without taking a lock.
type visitedSet struct{ m sync.Map }

// claim registers key and returns its node. The first caller for a key gets
// created=true and a FRESH node with State nil — the node is a placeholder
// until the deterministic level-barrier merge finalizes its provenance
// (State/Parent/Via/Depth), so which worker wins the claim race never
// influences which concrete state becomes the representative. Later callers
// get the same node with created=false; the Load first keeps that hit free
// of allocation.
func (v *visitedSet) claim(key string) (node *Node, created bool) {
	if n, ok := v.m.Load(key); ok {
		return n.(*Node), false
	}
	n, loaded := v.m.LoadOrStore(key, &Node{})
	return n.(*Node), !loaded
}
