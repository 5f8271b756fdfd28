package group

import (
	"sync"
	"sync/atomic"
)

// registry is the member table: user name -> *memberConn on a sync.Map
// (a concurrent hash-trie: lookups take no lock, writers lock one trie
// node). It replaces the single `sessions map[string]*memberConn` that used
// to live under Leader.mu. The rule that makes it consistent:
//
//   - Every membership MUTATION (insert on accept, remove on leave / expel /
//     evict / teardown) happens while Leader.mu is held. Admin broadcasts
//     also run under Leader.mu, so the sequence of {membership change,
//     broadcast} events stays totally ordered and every member observes a
//     consistent admin history — the property the paper's group-management
//     protocol is built on.
//   - READERS (the AppData relay's membership check and fan-out snapshot,
//     the liveness tick's probe sweep, Members()) take no leader lock, so
//     the hot paths never serialize behind joins, rekeys, or each other.
//
// Lock order: Leader.mu → changeLog.mu → memberConn.mu; never the reverse.
// The change log's mutex sits under Leader.mu because a standby's snapshot
// is cut under it (see serveReplica). The lockorder analyzer enforces the
// machine-readable form:
//
//enclavelint:lockorder Leader.mu < changeLog.mu < memberConn.mu
type registry struct {
	m sync.Map     // user name -> *memberConn
	n atomic.Int64 // live member count, stepped by the mutations
}

// get returns the member registered under user, or nil.
func (r *registry) get(user string) *memberConn {
	s, _ := r.m.Load(user)
	c, _ := s.(*memberConn)
	return c
}

// insert registers s under its user name, replacing any previous entry
// (re-join over a stale session) and returning the displaced session, if
// any. Callers must hold Leader.mu (mutation rule).
//
//enclavelint:guardedby Leader.mu
func (r *registry) insert(s *memberConn) (displaced *memberConn) {
	prev, loaded := r.m.Swap(s.user, s)
	if !loaded {
		r.n.Add(1)
		return nil
	}
	return prev.(*memberConn)
}

// take removes and returns the member registered under user (nil if
// absent). Callers must hold Leader.mu (mutation rule).
//
//enclavelint:guardedby Leader.mu
func (r *registry) take(user string) *memberConn {
	s, ok := r.m.LoadAndDelete(user)
	if !ok {
		return nil
	}
	r.n.Add(-1)
	return s.(*memberConn)
}

// remove deletes s only if it is still the registered session for its user
// (a re-joined member may have displaced it), reporting whether it did.
// Callers must hold Leader.mu (mutation rule).
//
//enclavelint:guardedby Leader.mu
func (r *registry) remove(s *memberConn) bool {
	if !r.m.CompareAndDelete(s.user, s) {
		return false
	}
	r.n.Add(-1)
	return true
}

// size returns the live member count.
func (r *registry) size() int { return int(r.n.Load()) }

// names returns the membership in registry order, unsorted: exact whenever
// the caller holds Leader.mu (no mutation can interleave the walk), and a
// consistent monitoring view otherwise.
func (r *registry) names() []string {
	out := make([]string, 0, r.size())
	r.m.Range(func(u, _ any) bool {
		out = append(out, u.(string))
		return true
	})
	return out
}

// appendAll appends every member except skip (no entry skipped when skip is
// "") to buf and returns it. Same snapshot semantics as names.
func (r *registry) appendAll(buf []*memberConn, skip string) []*memberConn {
	r.m.Range(func(u, s any) bool {
		if u.(string) != skip {
			buf = append(buf, s.(*memberConn))
		}
		return true
	})
	return buf
}
