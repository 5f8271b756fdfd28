package group

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// registry is the sharded member table: the single
// `sessions map[string]*memberConn` that used to live under Leader.mu,
// split into power-of-two lock stripes keyed by FNV-1a of the user name.
// The split is a contention fix, not a consistency change — the rule that
// makes it safe is:
//
//   - Every membership MUTATION (insert on accept, remove on leave / expel /
//     evict / teardown) still happens while Leader.mu is held, in addition to
//     the owning stripe's lock. Admin broadcasts also run under Leader.mu,
//     so the sequence of {membership change, broadcast} events stays totally
//     ordered and every member observes a consistent admin history — the
//     property the paper's group-management protocol is built on.
//   - READERS (the AppData relay's membership check and fan-out snapshot,
//     the liveness tick's probe sweep, Members()) take only stripe locks, so
//     the hot paths stop serializing behind joins, rekeys, and each other.
//
// Lock order: Leader.mu → changeLog.mu → stripe.mu → memberConn.mu; never
// the reverse. The change log's mutex sits above the registry because a
// standby's snapshot is cut under it (see serveReplica). The lockorder
// analyzer enforces the machine-readable form:
//
//enclavelint:lockorder Leader.mu < changeLog.mu < stripe < memberConn.mu
type registry struct {
	stripes []stripe
	mask    uint32
	n       atomic.Int64 // live member count, updated inside stripe critical sections
}

// stripe is one lock-striped bucket of the registry. Lock/Unlock are
// explicit wrapper methods (rather than exposing the embedded mutex) so the
// lockorder analyzer treats a held stripe as one lock class, exactly like a
// held sync.Mutex: sealing or sending while holding one is the same bug
// shape as the PR 2 seal-under-Leader.mu regression.
type stripe struct {
	mu      sync.Mutex
	members map[string]*memberConn
	_       [24]byte // pad to discourage false sharing between adjacent stripes
}

// Lock acquires the stripe.
func (s *stripe) Lock() { s.mu.Lock() }

// Unlock releases the stripe.
func (s *stripe) Unlock() { s.mu.Unlock() }

// stripeCount sizes a striped table. shards <= 0 selects a default: enough
// stripes that GOMAXPROCS concurrent touchers rarely collide (4× over-
// provisioning keeps the collision probability low by birthday bound),
// clamped to [8, 256]. The result is rounded up to a power of two for mask
// indexing.
func stripeCount(shards int) int {
	if shards <= 0 {
		shards = min(max(4*runtime.GOMAXPROCS(0), 8), 256)
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	return n
}

// newRegistry builds a registry with the given stripe count (see
// stripeCount).
func newRegistry(shards int) *registry {
	n := stripeCount(shards)
	r := &registry{stripes: make([]stripe, n), mask: uint32(n - 1)}
	for i := range r.stripes {
		r.stripes[i].members = make(map[string]*memberConn)
	}
	return r
}

// fnv1a hashes a user name with 32-bit FNV-1a. Inlined rather than
// hash/fnv so the hot paths (every relay, every ack) pay zero allocations
// and no interface dispatch.
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// stripeFor returns the stripe owning user.
func (r *registry) stripeFor(user string) *stripe {
	return &r.stripes[fnv1a(user)&r.mask]
}

// slotFor returns the stripe index for user — also used as the member's
// fixed slot in the striped outbox-depth gauge, so gauge contention shards
// the same way registry contention does.
func (r *registry) slotFor(user string) int {
	return int(fnv1a(user) & r.mask)
}

// get returns the member registered under user, or nil.
func (r *registry) get(user string) *memberConn {
	sh := r.stripeFor(user)
	sh.Lock()
	s := sh.members[user]
	sh.Unlock()
	return s
}

// insert registers s under its user name, replacing any previous entry
// (re-join over a stale session) and returning the displaced session, if
// any. Callers must hold Leader.mu (mutation rule).
//
//enclavelint:guardedby Leader.mu
func (r *registry) insert(s *memberConn) (displaced *memberConn) {
	sh := r.stripeFor(s.user)
	sh.Lock()
	displaced = sh.members[s.user]
	sh.members[s.user] = s
	if displaced == nil {
		r.n.Add(1)
	}
	sh.Unlock()
	return displaced
}

// take removes and returns the member registered under user (nil if
// absent). Callers must hold Leader.mu (mutation rule).
//
//enclavelint:guardedby Leader.mu
func (r *registry) take(user string) *memberConn {
	sh := r.stripeFor(user)
	sh.Lock()
	s := sh.members[user]
	if s != nil {
		delete(sh.members, user)
		r.n.Add(-1)
	}
	sh.Unlock()
	return s
}

// remove deletes s only if it is still the registered session for its user
// (a re-joined member may have displaced it), reporting whether it did.
// Callers must hold Leader.mu (mutation rule).
//
//enclavelint:guardedby Leader.mu
func (r *registry) remove(s *memberConn) bool {
	sh := r.stripeFor(s.user)
	sh.Lock()
	cur := sh.members[s.user]
	if cur != s {
		sh.Unlock()
		return false
	}
	delete(sh.members, s.user)
	r.n.Add(-1)
	sh.Unlock()
	return true
}

// size returns the live member count without touching any stripe lock.
func (r *registry) size() int { return int(r.n.Load()) }

// names returns the membership in sorted order. Stripes are visited one at
// a time, so the result is a union of per-stripe snapshots — exact whenever
// the caller holds Leader.mu (no mutation can interleave), and a consistent
// monitoring view otherwise.
func (r *registry) names() []string {
	out := make([]string, 0, r.size())
	for i := range r.stripes {
		sh := &r.stripes[i]
		sh.Lock()
		for u := range sh.members {
			out = append(out, u)
		}
		sh.Unlock()
	}
	sort.Strings(out)
	return out
}

// appendAll appends every member except skip (no entry skipped when skip is
// "") to buf and returns it. Same per-stripe snapshot semantics as names.
func (r *registry) appendAll(buf []*memberConn, skip string) []*memberConn {
	for i := range r.stripes {
		sh := &r.stripes[i]
		sh.Lock()
		for u, s := range sh.members {
			if u == skip {
				continue
			}
			buf = append(buf, s)
		}
		sh.Unlock()
	}
	return buf
}
