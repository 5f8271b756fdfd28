// Package lockorder seeds violations of an annotated lock hierarchy,
// including one that only exists across a call chain: the callee's
// transitive-acquires summary meets the caller's held set. The seal rule
// has its own corpus, sealunderlock.
package lockorder

import "sync"

// The declared hierarchy: registry lock before stripe buckets before
// per-session locks.
//
//enclavelint:lockorder Registry.mu < bucket < session.mu
type Registry struct {
	mu    sync.Mutex
	parts []*bucket
}

// bucket is a lock wrapper: its own Lock/Unlock forward to the inner
// mutex, so holding a bucket is one lock class regardless of which field
// the body touches.
type bucket struct {
	mu sync.Mutex
	n  int
}

func (b *bucket) Lock()   { b.mu.Lock() }
func (b *bucket) Unlock() { b.mu.Unlock() }

type session struct {
	mu  sync.Mutex
	seq int
}

// rebalance acquires the registry lock: callers below a bucket must not
// reach it.
func (r *Registry) rebalance() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.parts = r.parts[:0]
}

// grow inverts the order through the call chain: it holds a bucket and
// calls a function whose summary acquires Registry.mu.
func grow(r *Registry, b *bucket) {
	b.Lock()
	defer b.Unlock()
	b.n++
	r.rebalance() // want `rebalance acquires Registry\.mu, called while holding bucket`
}

// attach inverts the order directly: session.mu is the last class.
func (s *session) attach(r *Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r.mu.Lock() // want `inverts the declared lock order Registry\.mu < session\.mu`
	r.parts = nil
	r.mu.Unlock()
}

// reset re-acquires the same mutex on one path: a sync.Mutex
// self-deadlocks.
func (r *Registry) reset() {
	r.mu.Lock()
	r.mu.Lock() // want `twice on the same path`
	r.parts = nil
	r.mu.Unlock()
	r.mu.Unlock()
}

// steal runs under session.mu by contract, so its registry acquisition is
// the same inversion as attach's, proved via the guardedby annotation.
//
//enclavelint:guardedby session.mu
func steal(r *Registry, s *session) {
	r.mu.Lock() // want `inverts the declared lock order Registry\.mu < session\.mu`
	defer r.mu.Unlock()
	s.seq++
}
