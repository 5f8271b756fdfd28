// Directory is the multi-tenant layer: one daemon process hosts thousands
// of independent groups, each with its own Leader — own users, own group
// key and epoch trajectory, own rekeyer, own audit stream — behind one
// shared listener. The group table is a sync.Map in front of each group's
// member table (also a sync.Map), so group lookup (every routed connection)
// takes no lock and group creation (rare) never serializes process-wide.
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
	// is created on its first lookup, by label or by an unlabeled stream,
	// and is permanent like a precreated group: never collected, never
	// counted against MaxDynamic.
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
// the creator's outcome instead of building a second Leader. leader is the
// Leader the creator built, closed again if err is set.
type dirCreation struct {
	done   chan struct{}
	leader *Leader
	err    error
}

// outcome waits for the creation and returns its result.
func (c *dirCreation) outcome() (*Leader, error) {
	<-c.done
	if c.err != nil {
		return nil, c.err
	}
	return c.leader, nil
}

// Directory is a running multi-tenant group registry. Safe for concurrent
// use.
type Directory struct {
	cfg  DirectoryConfig
	logf func(string, ...any)
	// groups maps a group ID to its *dirEntry; creating holds the in-flight
	// *dirCreation per group ID apart from it, so the lookup hit path probes
	// only finished groups.
	groups   sync.Map
	creating sync.Map

	// dynamic counts live dynamically created groups against MaxDynamic;
	// reservation happens by CAS before the (slow) leader construction, so
	// a create storm cannot overshoot the cap.
	dynamic atomic.Int64

	// srv serves every socket accepted by Serve, routing each stream
	// through route; Close hangs them all up.
	srv *transport.MuxServer

	closed atomic.Bool
	// gc admits the TTL sweeps; Close shuts it.
	gc gate
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
	d := &Directory{cfg: cfg, logf: logf}
	d.srv = transport.NewMuxServer(transport.MuxConfig{Accept: d.route, Logf: cfg.Logf})
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
		d.gc.every(max(cfg.TTL/2, 10*time.Millisecond), func() { d.sweep(time.Now()) })
	}
	return d, nil
}

// Lookup resolves a group ID to its Leader, creating the group on demand
// when dynamic creation permits; the default group is always created, as a
// permanent group. The steady-state path is one lock-free map probe;
// construction happens outside any lock, and racing first lookups wait for
// the one creator.
func (d *Directory) Lookup(group string) (*Leader, error) {
	if d.closed.Load() {
		return nil, errDirectoryClosed
	}
	if ld := d.hit(group); ld != nil {
		return ld, nil
	}
	return d.create(group, d.cfg.Default == "" || group != d.cfg.Default)
}

// hit returns a live group's Leader and marks the group active, or nil.
func (d *Directory) hit(group string) *Leader {
	v, ok := d.groups.Load(group)
	if !ok {
		return nil
	}
	e := v.(*dirEntry)
	e.lastActive.Store(time.Now().UnixNano())
	return e.leader
}

// reserveDynamic takes one slot against MaxDynamic, by CAS so a create storm
// cannot overshoot the cap.
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
	c := &dirCreation{done: make(chan struct{})}
	if v, loaded := d.creating.LoadOrStore(group, c); loaded {
		return v.(*dirCreation).outcome()
	}
	c.leader, c.err = d.install(group, dynamic)
	close(c.done)
	d.creating.Delete(group)
	return c.outcome()
}

// install builds and publishes a group for the creator that claimed it.
func (d *Directory) install(group string, dynamic bool) (*Leader, error) {
	// A creator that finished between the caller's miss and this claim has
	// published its group already.
	if ld := d.hit(group); ld != nil {
		return ld, nil
	}
	if dynamic && !d.reserveDynamic() {
		return nil, fmt.Errorf("%w: %q (dynamic group limit %d reached)", errUnknownGroup, group, d.cfg.MaxDynamic)
	}
	ld, err := d.build(group)
	if err != nil {
		if dynamic {
			d.dynamic.Add(-1)
		}
		return nil, err
	}
	e := &dirEntry{leader: ld, dynamic: dynamic}
	e.lastActive.Store(time.Now().UnixNano())
	mGroups.Add(1)
	d.groups.Store(group, e)
	// Close may have walked the table before the Store. No lock orders the
	// two, so both remove the entry by CompareAndDelete, and whichever wins
	// retires it.
	if d.closed.Load() {
		if d.groups.CompareAndDelete(group, e) {
			d.retire(e)
		}
		return ld, errDirectoryClosed
	}
	d.logf("group: directory created %q (dynamic=%v)", group, dynamic)
	return ld, nil
}

// retire closes a group just removed from the table and gives back what it
// held.
func (d *Directory) retire(e *dirEntry) {
	e.leader.Close()
	if e.dynamic {
		d.dynamic.Add(-1)
	}
	mGroups.Add(-1)
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

// sweep collects every dynamic group whose last activity predates the TTL
// and whose leader is idle. A lookup that races in keeps its group: the
// sweep re-reads lastActive after the idle check and removes only the entry
// it checked.
func (d *Directory) sweep(now time.Time) {
	cutoff := now.Add(-d.cfg.TTL).UnixNano()
	d.groups.Range(func(name, v any) bool {
		e := v.(*dirEntry)
		if !e.dynamic || e.lastActive.Load() >= cutoff || !e.leader.Idle() {
			return true
		}
		// Re-read: a connection may have touched the group during the idle
		// check.
		if e.lastActive.Load() >= cutoff || !d.groups.CompareAndDelete(name, e) {
			return true
		}
		// A routed connection can still hold this *Leader; Close makes its
		// in-flight handshakes fail cleanly (ServeConn checks closed), and a
		// later Lookup creates a fresh group.
		d.retire(e)
		dropTenant(name.(string))
		mGroupsCollected.Inc()
		d.logf("group: directory collected idle group %q", name)
		return true
	})
}

// Groups returns the live group IDs, sorted.
func (d *Directory) Groups() []string {
	var out []string
	d.groups.Range(func(name, _ any) bool {
		out = append(out, name.(string))
		return true
	})
	sort.Strings(out)
	return out
}

// route is the transport.MuxConfig Accept hook: resolve the connection's
// group (empty label means the default group, the single-session path)
// and hand the connection to its leader. It runs on the socket's read loop,
// which waits for it: ServeConn only attaches the session and returns.
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

// Close stops the GC, returning once no sweep runs or can start, waits for
// connection handlers, and closes every group's leader. Listeners passed to
// Serve must be closed by the caller (Close cannot reach them); Serve then
// returns nil.
func (d *Directory) Close() {
	if d.closed.Swap(true) {
		return
	}
	d.gc.shut()
	// Unblock every demux loop: closing the raw sockets ends their reads,
	// and each loop ends its streams, running the leaders' handlers for
	// the end of each session.
	d.srv.Close()
	// A creation that publishes after this walk removes its own entry (see
	// install).
	d.groups.Range(func(name, e any) bool {
		if d.groups.CompareAndDelete(name, e) {
			d.retire(e.(*dirEntry))
		}
		return true
	})
}
