// Directory is the multi-tenant layer: one daemon process hosts thousands
// of independent groups, each with its own Leader — own users, own group
// key and epoch trajectory, own rekeyer, own audit stream — behind one
// shared listener. The registry applies the PR 5 stripe pattern one level
// up: a lock-striped group table in front of each group's lock-striped
// member table, so group lookup (every routed connection) and group
// creation (rare) never serialize process-wide.
//
// Isolation between groups is by construction, not by routing discipline:
// every group's Leader derives member long-term keys with the group ID as
// the leader identity (crypto.DeriveKey(user, group, password)), so the
// same username in two groups holds unrelated keys, and group keys are
// independently generated per Leader. A frame routed to the wrong group
// fails authentication there; no shared state exists to bleed.
package group

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"enclaves/internal/transport"
)

// DirectoryConfig configures the multi-tenant group registry.
type DirectoryConfig struct {
	// NewConfig builds the leader configuration for a group ID — the users
	// it authorizes, its rekey policy, everything a single-tenant Config
	// carries. Required. The Directory fills in Name and Tenant from the
	// group ID when left empty.
	NewConfig func(group string) (Config, error)
	// Precreate lists group IDs created eagerly at construction. Precreated
	// groups are permanent: never garbage-collected, never counted against
	// MaxDynamic.
	Precreate []string
	// Default, when non-empty, is the group a stream with no group label
	// routes to — where single-session clients (transport.DialTCP) land. It
	// must be listed in Precreate.
	Default string
	// MaxDynamic caps groups created on demand by the first connection that
	// names them. Zero forbids dynamic creation entirely (only precreated
	// groups exist); negative means unlimited.
	MaxDynamic int
	// TTL garbage-collects a dynamic group that has been idle (no
	// connections, no members) and inactive for this long. Zero disables
	// collection.
	TTL time.Duration
	// Logf, if non-nil, receives diagnostic log lines.
	Logf func(format string, args ...any)
}

// errUnknownGroup is returned by Lookup for a group that does not exist and
// cannot be created (dynamic creation disabled or at capacity).
var errUnknownGroup = errors.New("group: unknown group")

// errDirectoryClosed is returned by operations on a closed Directory.
var errDirectoryClosed = errors.New("group: directory closed")

// dirEntry is one live group. lastActive is touched lock-free on every
// lookup, so the GC's idleness clock never adds contention to routing.
type dirEntry struct {
	leader  *Leader
	dynamic bool
	// lastActive is the Unix-nano timestamp of the latest Lookup.
	lastActive atomic.Int64
}

// dirCreation is a group being built. Lookups that find it wait on done for
// the creator's outcome instead of building a second Leader.
type dirCreation struct {
	done   chan struct{}
	leader *Leader
	err    error
}

// dirStripe is one bucket of the group table; the same explicit Lock/Unlock
// wrapper shape as the member registry's stripe, for the lockorder
// analyzer. creating holds the in-flight creations apart from groups, so the
// lookup hit path probes only finished entries.
type dirStripe struct {
	mu       sync.Mutex
	groups   map[string]*dirEntry
	creating map[string]*dirCreation
	_        [16]byte // pad to discourage false sharing between adjacent stripes
}

// Lock acquires the stripe.
func (s *dirStripe) Lock() { s.mu.Lock() }

// Unlock releases the stripe.
func (s *dirStripe) Unlock() { s.mu.Unlock() }

// Directory is a running multi-tenant group registry. Safe for concurrent
// use.
//
// Lock order: a dirStripe is leaf-like — nothing else is acquired while one
// is held (leaders are created and closed outside the stripe critical
// section).
type Directory struct {
	cfg     DirectoryConfig
	logf    func(string, ...any)
	stripes []dirStripe
	mask    uint32

	// dynamic counts live dynamically created groups against MaxDynamic;
	// reservation happens by CAS before the (slow) leader construction, so
	// a create storm cannot overshoot the cap.
	dynamic atomic.Int64

	// srv serves every socket accepted by Serve, routing each stream
	// through route; Close hangs them all up.
	srv *transport.MuxServer

	closed atomic.Bool
	stop   chan struct{}
	wg     sync.WaitGroup
}

// NewDirectory builds the registry and creates every precreated group.
func NewDirectory(cfg DirectoryConfig) (*Directory, error) {
	if cfg.NewConfig == nil {
		return nil, errors.New("group: DirectoryConfig.NewConfig is required")
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	n := stripeCount(0)
	d := &Directory{
		cfg:     cfg,
		logf:    logf,
		stripes: make([]dirStripe, n),
		mask:    uint32(n - 1),
		stop:    make(chan struct{}),
	}
	d.srv = transport.NewMuxServer(transport.MuxConfig{Accept: d.route, Logf: cfg.Logf})
	for i := range d.stripes {
		d.stripes[i].groups = make(map[string]*dirEntry)
		d.stripes[i].creating = make(map[string]*dirCreation)
	}
	if cfg.Default != "" && !slices.Contains(cfg.Precreate, cfg.Default) {
		d.Close()
		return nil, fmt.Errorf("group: default group %q not in Precreate", cfg.Default)
	}
	for _, g := range cfg.Precreate {
		if g == "" {
			d.Close()
			return nil, errors.New("group: empty group ID in Precreate")
		}
		if _, err := d.create(g, false); err != nil {
			d.Close()
			return nil, fmt.Errorf("group: precreate %q: %w", g, err)
		}
	}
	if cfg.TTL > 0 {
		d.wg.Add(1)
		go d.gcLoop()
	}
	return d, nil
}

func (d *Directory) stripeFor(group string) *dirStripe {
	return &d.stripes[fnv1a(group)&d.mask]
}

// Lookup resolves a group ID to its Leader, creating the group on demand
// when dynamic creation permits. The steady-state path is one stripe lock
// and a map probe; construction happens outside any lock, and racing first
// lookups wait for the one creator.
func (d *Directory) Lookup(group string) (*Leader, error) {
	if d.closed.Load() {
		return nil, errDirectoryClosed
	}
	st := d.stripeFor(group)
	st.Lock()
	e := st.groups[group]
	st.Unlock()
	if e != nil {
		e.lastActive.Store(time.Now().UnixNano())
		return e.leader, nil
	}
	return d.create(group, true)
}

// reserveDynamic takes one slot against MaxDynamic, by CAS so a create storm
// across stripes cannot overshoot the cap.
func (d *Directory) reserveDynamic() bool {
	limit := int64(d.cfg.MaxDynamic)
	for {
		cur := d.dynamic.Load()
		if limit >= 0 && cur >= limit {
			return false
		}
		if d.dynamic.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// create builds a group's Leader and installs it, once: callers that race
// the creator wait for its outcome and share it. dynamic groups reserve a
// slot against MaxDynamic first and are eligible for TTL collection.
func (d *Directory) create(group string, dynamic bool) (*Leader, error) {
	st := d.stripeFor(group)
	st.Lock()
	if e := st.groups[group]; e != nil {
		st.Unlock()
		e.lastActive.Store(time.Now().UnixNano())
		return e.leader, nil
	}
	if c := st.creating[group]; c != nil {
		st.Unlock()
		<-c.done
		return c.leader, c.err
	}
	if dynamic && !d.reserveDynamic() {
		st.Unlock()
		return nil, fmt.Errorf("%w: %q (dynamic group limit %d reached)", errUnknownGroup, group, d.cfg.MaxDynamic)
	}
	c := &dirCreation{done: make(chan struct{})}
	st.creating[group] = c
	st.Unlock()

	// Waiters read c.leader and c.err only after done is closed.
	defer close(c.done)
	ld, err := d.build(group)
	st.Lock()
	delete(st.creating, group)
	if err == nil && d.closed.Load() {
		err = errDirectoryClosed
	}
	if err == nil {
		e := &dirEntry{leader: ld, dynamic: dynamic}
		e.lastActive.Store(time.Now().UnixNano())
		st.groups[group] = e
	}
	st.Unlock()
	if err != nil {
		if ld != nil {
			ld.Close()
		}
		if dynamic {
			d.dynamic.Add(-1)
		}
		c.err = err
		return nil, err
	}
	c.leader = ld
	mGroups.Add(1)
	d.logf("group: directory created %q (dynamic=%v)", group, dynamic)
	return ld, nil
}

// build constructs the Leader for a group from its NewConfig.
func (d *Directory) build(group string) (*Leader, error) {
	cfg, err := d.cfg.NewConfig(group)
	if err != nil {
		return nil, err
	}
	if cfg.Name == "" {
		cfg.Name = group
	}
	if cfg.Tenant == "" {
		cfg.Tenant = group
	}
	return NewLeader(cfg)
}

// gcLoop sweeps dynamic groups that have been idle past the TTL.
func (d *Directory) gcLoop() {
	defer d.wg.Done()
	every := d.cfg.TTL / 2
	if every < 10*time.Millisecond {
		every = 10 * time.Millisecond
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			d.sweep(time.Now())
		}
	}
}

// sweep collects every dynamic group whose last activity predates the TTL
// and whose leader is idle. The idle check runs outside the stripe lock;
// removal re-checks under the lock so a lookup that raced in keeps its
// group.
func (d *Directory) sweep(now time.Time) {
	cutoff := now.Add(-d.cfg.TTL).UnixNano()
	for i := range d.stripes {
		st := &d.stripes[i]
		var candidates []*dirEntry
		var names []string
		st.Lock()
		for name, e := range st.groups {
			if e.dynamic && e.lastActive.Load() < cutoff {
				candidates = append(candidates, e)
				names = append(names, name)
			}
		}
		st.Unlock()
		for j, e := range candidates {
			if !e.leader.Idle() {
				continue
			}
			name := names[j]
			st.Lock()
			// Re-check under the lock: a connection may have touched the
			// group between the idle check and now.
			if st.groups[name] != e || e.lastActive.Load() >= cutoff {
				st.Unlock()
				continue
			}
			delete(st.groups, name)
			st.Unlock()
			// A routed connection can still hold this *Leader; Close makes
			// its in-flight handshakes fail cleanly (ServeConn checks
			// closed), and a later Lookup creates a fresh group.
			e.leader.Close()
			dropTenant(name)
			d.dynamic.Add(-1)
			mGroups.Add(-1)
			mGroupsCollected.Inc()
			d.logf("group: directory collected idle group %q", name)
		}
	}
}

// Groups returns the live group IDs, sorted.
func (d *Directory) Groups() []string {
	var out []string
	for i := range d.stripes {
		st := &d.stripes[i]
		st.Lock()
		for name := range st.groups {
			out = append(out, name)
		}
		st.Unlock()
	}
	sort.Strings(out)
	return out
}

// route is the transport.MuxConfig Accept hook: resolve the connection's
// group (empty label means the default group, the single-session path)
// and hand the connection to its leader. Must not block — ServeConn only
// registers a goroutine.
func (d *Directory) route(group string, c transport.Conn) {
	if group == "" {
		if d.cfg.Default == "" {
			d.logf("group: unlabeled connection with no default group, dropping")
			c.Close()
			return
		}
		group = d.cfg.Default
	}
	ld, err := d.Lookup(group)
	if err != nil {
		d.logf("group: route to %q: %v", group, err)
		c.Close()
		return
	}
	if err := ld.ServeConn(c); err != nil {
		d.logf("group: route to %q: %v", group, err)
	}
}

// Serve accepts and routes connections from a shared raw listener until the
// listener fails or Close is called. Every connection is multiplexed: one
// session or many, each stream labeled with its group (no label means the
// default group). It blocks; run it in a goroutine.
func (d *Directory) Serve(nl net.Listener) error {
	if err := d.srv.Serve(nl); err != nil {
		return fmt.Errorf("group: directory accept: %w", err)
	}
	return nil
}

// Close stops the GC, waits for connection handlers, and closes every
// group's leader. Listeners passed to Serve must be closed by the caller
// (Close cannot reach them); Serve then returns nil.
func (d *Directory) Close() {
	if d.closed.Swap(true) {
		return
	}
	close(d.stop)
	// Unblock every demux loop: closing the raw sockets ends their reads,
	// which in turn closes every stream and lets leader-side handlers
	// finish.
	d.srv.Close()
	d.wg.Wait()
	for i := range d.stripes {
		st := &d.stripes[i]
		st.Lock()
		entries := make([]*dirEntry, 0, len(st.groups))
		for _, e := range st.groups {
			entries = append(entries, e)
		}
		st.groups = make(map[string]*dirEntry)
		st.Unlock()
		for _, e := range entries {
			e.leader.Close()
			mGroups.Add(-1)
		}
	}
}
