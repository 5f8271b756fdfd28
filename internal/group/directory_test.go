package group

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"enclaves/internal/crypto"
	"enclaves/internal/member"
	"enclaves/internal/transport"
)

// dirConfig is the standard test DirectoryConfig: every group authorizes
// users m0..m3 with per-group derived keys — the same derivation enclaved
// uses, which is what makes cross-group key bleed impossible by
// construction.
func dirConfig(t *testing.T) DirectoryConfig {
	t.Helper()
	return DirectoryConfig{
		NewConfig: func(group string) (Config, error) {
			users := make(map[string]crypto.Key)
			for i := 0; i < 4; i++ {
				u := fmt.Sprintf("m%d", i)
				users[u] = crypto.DeriveKey(u, group, "pw-"+u)
			}
			return Config{Users: users, Rekey: DefaultRekeyPolicy()}, nil
		},
	}
}

// startDirectory serves a Directory on a loopback listener and returns its
// address.
func startDirectory(t *testing.T, cfg DirectoryConfig) (*Directory, string) {
	t.Helper()
	d, err := NewDirectory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go d.Serve(nl)
	t.Cleanup(func() {
		nl.Close()
		d.Close()
	})
	return d, nl.Addr().String()
}

// joinVia opens a mux stream for group and runs the full member join on it.
func joinVia(t *testing.T, m *transport.Mux, group, user string) *member.Member {
	t.Helper()
	c, err := m.Open(group)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := member.Join(c, user, group, crypto.DeriveKey(user, group, "pw-"+user))
	if err != nil {
		t.Fatalf("join %s/%s: %v", group, user, err)
	}
	if err := mb.WaitReady(5 * time.Second); err != nil {
		t.Fatalf("ready %s/%s: %v", group, user, err)
	}
	return mb
}

// TestDirectoryIsolation pins per-group isolation: groups sharing one
// daemon (and here one socket) have independent epochs, independent group
// keys, and no traffic bleed — a message multicast in one group is never
// seen by a member of another.
func TestDirectoryIsolation(t *testing.T) {
	cfg := dirConfig(t)
	cfg.MaxDynamic = -1
	d, addr := startDirectory(t, cfg)

	m, err := transport.DialMux(addr, transport.MuxConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	a0 := joinVia(t, m, "alpha", "m0")
	a1 := joinVia(t, m, "alpha", "m1")
	b0 := joinVia(t, m, "beta", "m0") // same username, different group
	defer a0.Leave()
	defer a1.Leave()
	defer b0.Leave()

	// Same user in different groups holds unrelated long-term keys and
	// unrelated group keys.
	ka, _ := a0.GroupKey()
	kb, _ := b0.GroupKey()
	if ka.Equal(kb) {
		t.Fatal("group keys of alpha and beta are equal")
	}
	if crypto.DeriveKey("m0", "alpha", "pw-m0").Equal(crypto.DeriveKey("m0", "beta", "pw-m0")) {
		t.Fatal("per-group derived long-term keys are equal")
	}

	// Drive epochs apart: churn beta only.
	la, err := d.Lookup("alpha")
	if err != nil {
		t.Fatal(err)
	}
	lb, err := d.Lookup("beta")
	if err != nil {
		t.Fatal(err)
	}
	epochA := la.Epoch()
	for i := 0; i < 3; i++ {
		if err := lb.Rekey(); err != nil {
			t.Fatal(err)
		}
	}
	if la.Epoch() != epochA {
		t.Fatalf("alpha epoch moved (%d -> %d) when beta rekeyed", epochA, la.Epoch())
	}
	if lb.Epoch() <= epochA {
		t.Fatalf("beta epoch %d did not advance past %d", lb.Epoch(), epochA)
	}

	// Multicast in alpha; beta's member must never see it.
	if err := a0.SendData([]byte("alpha-secret")); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		done := make(chan member.Event, 1)
		go func() {
			ev, err := a1.Next()
			if err == nil {
				done <- ev
			}
		}()
		var ev member.Event
		select {
		case ev = <-done:
		case <-deadline:
			t.Fatal("alpha multicast never arrived")
		}
		if ev.Kind == member.EventData {
			if string(ev.Data) != "alpha-secret" {
				t.Fatalf("alpha data corrupted: %q", ev.Data)
			}
			break
		}
	}
	// Membership of beta is exactly {m0}: no cross-group membership bleed.
	if got := lb.Members(); len(got) != 1 || got[0] != "m0" {
		t.Fatalf("beta members = %v, want [m0]", got)
	}
	if got := la.Members(); len(got) != 2 {
		t.Fatalf("alpha members = %v, want 2", got)
	}
}

// startTCPLeader serves one leader for group g (dirConfig's users) on a
// loopback ListenTCP listener — the single-tenant daemon — and returns it
// with its address.
func startTCPLeader(t *testing.T, g string, outboxLimit int) (*Leader, string) {
	t.Helper()
	cfg, err := dirConfig(t).NewConfig(g)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Name = g
	cfg.OutboxLimit = outboxLimit
	ld, err := NewLeader(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ld.Serve(l)
	t.Cleanup(func() {
		ld.Close()
		l.Close()
	})
	return ld, l.Addr()
}

// deafSocket is a socket whose owner can stop reading it: once stalled, Read
// parks until Close, so the peer's writes back up into the socket buffers.
type deafSocket struct {
	net.Conn
	stalled atomic.Bool
	closed  chan struct{}
	once    sync.Once
}

func (c *deafSocket) Read(p []byte) (int, error) {
	if c.stalled.Load() {
		<-c.closed
		return 0, net.ErrClosed
	}
	return c.Conn.Read(p)
}

func (c *deafSocket) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// TestStalledReaderDoesNotWedgeLeader is the slow-consumer regression over
// TCP: an authenticated member that stops reading its socket parks the
// leader's writer for it inside a socket write. Evicting that member closes
// its stream while the leader holds its group lock, so the close must not
// wait for the parked write — the eviction and the next join both complete.
func TestStalledReaderDoesNotWedgeLeader(t *testing.T) {
	const g = "main"
	ld, addr := startTCPLeader(t, g, 8)
	join := func(user string, c transport.Conn) *member.Member {
		t.Helper()
		type result struct {
			mb  *member.Member
			err error
		}
		done := make(chan result, 1)
		go func() {
			mb, err := member.Join(c, user, g, crypto.DeriveKey(user, g, "pw-"+user))
			if err == nil {
				err = mb.WaitReady(5 * time.Second)
			}
			done <- result{mb, err}
		}()
		select {
		case r := <-done:
			if r.err != nil {
				t.Fatalf("join %s: %v", user, r.err)
			}
			t.Cleanup(func() { c.Close() })
			return r.mb
		case <-time.After(5 * time.Second):
			t.Fatalf("join %s hung: the leader is wedged", user)
			return nil
		}
	}
	dial := func() transport.Conn {
		t.Helper()
		c, err := transport.DialTCP(addr)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	m0 := join("m0", dial())
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	nc.(*net.TCPConn).SetReadBuffer(4 << 10) // fill up sooner
	stall := &deafSocket{Conn: nc, closed: make(chan struct{})}
	c1, err := transport.NewNetConn(stall)
	if err != nil {
		t.Fatal(err)
	}
	join("m1", c1)
	waitFor(t, "m0 and m1 admitted", func() bool { return len(ld.Members()) == 2 })

	// m1 stops reading; m0's multicasts back up in the socket, park m1's
	// writer, overflow its outbox, and get it evicted.
	stall.stalled.Store(true)
	payload := make([]byte, 256<<10)
	waitFor(t, "stalled m1 evicted", func() bool {
		if err := m0.SendData(payload); err != nil {
			t.Fatalf("m0 multicast: %v", err)
		}
		return len(ld.Members()) == 1
	})

	m2 := join("m2", dial())
	// m2's join rekeyed the group; a multicast m0 seals before it has the new
	// key is one m2 cannot open.
	waitFor(t, "m0 on m2's epoch", func() bool { return m0.Epoch() == m2.Epoch() })
	if err := m0.SendData([]byte("still serving")); err != nil {
		t.Fatal(err)
	}
	waitEvent(t, m2, "multicast after the eviction", func(e member.Event) bool {
		return e.Kind == member.EventData && string(e.Data) == "still serving"
	})
}

// TestEveryClientReachesEveryDaemon pins the one framing: each way a client
// can open a session — a single-session dial, a mux stream naming the group,
// a mux stream with no label — completes join, multicast and leave against
// each way a daemon can listen, a one-leader listener and a directory with a
// default group.
func TestEveryClientReachesEveryDaemon(t *testing.T) {
	const g = "main"
	type daemon struct {
		name  string
		start func(t *testing.T) (addr string, members func() []string)
	}
	daemons := []daemon{
		{"Leader.Serve(ListenTCP)", func(t *testing.T) (string, func() []string) {
			ld, addr := startTCPLeader(t, g, 0)
			return addr, ld.Members
		}},
		{"Directory.Serve", func(t *testing.T) (string, func() []string) {
			cfg := dirConfig(t)
			cfg.Precreate = []string{g}
			cfg.Default = g
			d, addr := startDirectory(t, cfg)
			ld, err := d.Lookup(g)
			if err != nil {
				t.Fatal(err)
			}
			return addr, ld.Members
		}},
	}
	openOn := func(label string) func(t *testing.T, addr string) transport.Conn {
		return func(t *testing.T, addr string) transport.Conn {
			m, err := transport.DialMux(addr, transport.MuxConfig{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { m.Close() })
			c, err := m.Open(label)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
	}
	type client struct {
		name string
		dial func(t *testing.T, addr string) transport.Conn
	}
	clients := []client{
		{"DialTCP", func(t *testing.T, addr string) transport.Conn {
			c, err := transport.DialTCP(addr)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
		{"DialMux+Open(name)", openOn(g)},
		{`DialMux+Open("")`, openOn("")},
	}
	for _, dm := range daemons {
		for _, cl := range clients {
			t.Run(cl.name+" to "+dm.name, func(t *testing.T) {
				addr, members := dm.start(t)
				join := func(user string) *member.Member {
					mb, err := member.Join(cl.dial(t, addr), user, g, crypto.DeriveKey(user, g, "pw-"+user))
					if err != nil {
						t.Fatalf("join %s: %v", user, err)
					}
					if err := mb.WaitReady(5 * time.Second); err != nil {
						t.Fatalf("ready %s: %v", user, err)
					}
					return mb
				}
				m0, m1 := join("m0"), join("m1")
				waitFor(t, "both members admitted", func() bool { return len(members()) == 2 })
				// m1 is ready on the key its join rotated in; m0 installs that
				// key asynchronously, and a multicast under m0's older key is
				// one m1 never held.
				waitFor(t, "both members on one key", func() bool { return m0.Epoch() == m1.Epoch() })
				if err := m0.SendData([]byte("one framing")); err != nil {
					t.Fatal(err)
				}
				ev := waitEvent(t, m1, "multicast", func(e member.Event) bool { return e.Kind == member.EventData })
				if string(ev.Data) != "one framing" || ev.From != "m0" {
					t.Fatalf("m1 got %q from %q", ev.Data, ev.From)
				}
				for _, mb := range []*member.Member{m0, m1} {
					if err := mb.Leave(); err != nil {
						t.Fatalf("%s leave: %v", mb.Name(), err)
					}
				}
				waitFor(t, "both members gone", func() bool { return len(members()) == 0 })
			})
		}
	}
}

// TestDirectoryLimits pins creation policy: MaxDynamic caps on-demand
// groups, zero forbids them, and precreated groups are exempt. So is the
// default group, which need not be precreated: it is built on its first
// lookup, even with dynamic creation forbidden, and is never collected.
func TestDirectoryLimits(t *testing.T) {
	cfg := dirConfig(t)
	cfg.Precreate = []string{"pre0", "pre1"}
	cfg.MaxDynamic = 2
	d, err := NewDirectory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	for _, g := range []string{"pre0", "pre1", "dyn0", "dyn1"} {
		if _, err := d.Lookup(g); err != nil {
			t.Fatalf("lookup %q: %v", g, err)
		}
	}
	if _, err := d.Lookup("dyn2"); !errors.Is(err, errUnknownGroup) {
		t.Fatalf("lookup over cap: err = %v, want errUnknownGroup", err)
	}
	if got := len(d.Groups()); got != 4 {
		t.Fatalf("%d groups, want 4", got)
	}

	// Zero MaxDynamic: only precreated groups exist.
	cfg2 := dirConfig(t)
	cfg2.Precreate = []string{"only"}
	d2, err := NewDirectory(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if _, err := d2.Lookup("other"); !errors.Is(err, errUnknownGroup) {
		t.Fatalf("dynamic creation with MaxDynamic=0: err = %v", err)
	}

	// The default group: absent until its first lookup, then permanent.
	cfg3 := dirConfig(t)
	cfg3.Default = "home"
	cfg3.TTL = time.Millisecond
	d3, err := NewDirectory(cfg3)
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if got := d3.Groups(); len(got) != 0 {
		t.Fatalf("groups before any lookup = %v, want none", got)
	}
	if _, err := d3.Lookup("home"); err != nil {
		t.Fatalf("default group with MaxDynamic=0: %v", err)
	}
	if _, err := d3.Lookup("other"); !errors.Is(err, errUnknownGroup) {
		t.Fatalf("dynamic creation with MaxDynamic=0: err = %v", err)
	}
	d3.sweep(time.Now().Add(time.Hour))
	if got := d3.Groups(); !reflect.DeepEqual(got, []string{"home"}) || d3.dynamic.Load() != 0 {
		t.Fatalf("after a sweep: groups %v, %d dynamic; want [home], 0", got, d3.dynamic.Load())
	}
}

// TestDirectoryCreateOnce pins single creation under a thundering first
// lookup: 32 concurrent Lookups of one new group run NewConfig (every
// user's key derivation) once, take one MaxDynamic slot, and all get the
// same Leader. The creator is held inside NewConfig until the others have
// had time to reach the in-flight entry, so they are waiters, not late hits.
func TestDirectoryCreateOnce(t *testing.T) {
	const callers = 32
	var calls atomic.Int32
	entered, release := make(chan struct{}), make(chan struct{})
	cfg := dirConfig(t)
	inner := cfg.NewConfig
	cfg.NewConfig = func(group string) (Config, error) {
		if calls.Add(1) == 1 {
			close(entered)
		}
		<-release
		return inner(group)
	}
	cfg.MaxDynamic = 1
	d, err := NewDirectory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	leaders := make([]*Leader, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			leaders[i], errs[i] = d.Lookup("fresh")
		}(i)
	}
	<-entered
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	for i := range leaders {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if leaders[i] != leaders[0] {
			t.Fatalf("caller %d got a different Leader", i)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("NewConfig ran %d times, want 1", n)
	}
	if n := d.dynamic.Load(); n != 1 {
		t.Errorf("dynamic slots taken = %d, want 1", n)
	}
}

// TestDirectoryCreateFailureReleasesWaiters: when a creation fails, every
// waiter gets its error (a caller too late to wait fails the same way on
// its own attempt), the slot is given back, nothing stays behind in either
// table, and a later Lookup starts a fresh creation.
func TestDirectoryCreateFailureReleasesWaiters(t *testing.T) {
	const callers = 32
	boom := errors.New("config backend down")
	var calls atomic.Int32
	var healthy atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	cfg := dirConfig(t)
	inner := cfg.NewConfig
	cfg.NewConfig = func(group string) (Config, error) {
		if healthy.Load() {
			return inner(group)
		}
		if calls.Add(1) == 1 {
			close(entered)
		}
		<-release
		return Config{}, boom
	}
	cfg.MaxDynamic = 1
	d, err := NewDirectory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = d.Lookup("flaky")
		}(i)
	}
	<-entered
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Errorf("caller %d: err = %v, want %v", i, err, boom)
		}
	}
	_, pending := d.creating.Load("flaky")
	_, installed := d.groups.Load("flaky")
	if pending || installed {
		t.Errorf("after failure: in-flight %t, installed %t, want neither", pending, installed)
	}
	if n := d.dynamic.Load(); n != 0 {
		t.Errorf("dynamic slots taken = %d, want 0", n)
	}
	healthy.Store(true)
	if _, err := d.Lookup("flaky"); err != nil {
		t.Errorf("lookup after the failure: %v", err)
	}
}

// TestDirectoryCloseDuringCreate: a creation still inside NewConfig when
// Close runs must not leak its Leader. No lock orders the two, so the
// creator finds the directory closed after publishing, takes its entry back
// out, and closes the Leader it built.
func TestDirectoryCloseDuringCreate(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	cfg := dirConfig(t)
	inner := cfg.NewConfig
	cfg.NewConfig = func(group string) (Config, error) {
		close(entered)
		<-release
		return inner(group)
	}
	cfg.MaxDynamic = -1
	d, err := NewDirectory(cfg)
	if err != nil {
		t.Fatal(err)
	}

	errc := make(chan error, 1)
	go func() {
		_, err := d.Lookup("slow")
		errc <- err
	}()
	<-entered
	v, ok := d.creating.Load("slow")
	if !ok {
		t.Fatal("creation in flight but not in the creating table")
	}
	c := v.(*dirCreation)
	d.Close()
	close(release)
	if err := <-errc; !errors.Is(err, errDirectoryClosed) {
		t.Fatalf("lookup across Close: err = %v, want errDirectoryClosed", err)
	}
	if c.leader == nil {
		t.Fatal("the creation built no Leader")
	}
	c.leader.mu.Lock()
	closed := c.leader.closed
	c.leader.mu.Unlock()
	if !closed {
		t.Error("the Leader built across Close was left open")
	}
	if got := d.Groups(); len(got) != 0 {
		t.Errorf("groups after Close = %v, want none", got)
	}
}

// TestDirectoryGC pins the idle-TTL collector: a dynamic group whose
// members all left is collected after the TTL, a precreated group never is,
// and a collected group is recreated fresh on the next lookup.
func TestDirectoryGC(t *testing.T) {
	cfg := dirConfig(t)
	cfg.Precreate = []string{"keep"}
	cfg.MaxDynamic = -1
	cfg.TTL = 50 * time.Millisecond
	d, addr := startDirectory(t, cfg)

	m, err := transport.DialMux(addr, transport.MuxConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	mb := joinVia(t, m, "ephemeral", "m0")
	ld, err := d.Lookup("ephemeral")
	if err != nil {
		t.Fatal(err)
	}
	epochBefore := ld.Epoch()

	// While the member is connected, the group survives any number of TTLs.
	time.Sleep(4 * cfg.TTL)
	if got := len(d.Groups()); got != 2 {
		t.Fatalf("%d groups with a live member, want 2", got)
	}

	if err := mb.Leave(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(d.Groups()) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("idle dynamic group never collected; groups = %v", d.Groups())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := d.Groups(); len(got) != 1 || got[0] != "keep" {
		t.Fatalf("surviving groups = %v, want [keep]", got)
	}

	// Recreation is from scratch: fresh key, epoch restarts.
	mb2 := joinVia(t, m, "ephemeral", "m0")
	defer mb2.Leave()
	ld2, err := d.Lookup("ephemeral")
	if err != nil {
		t.Fatal(err)
	}
	if ld2 == ld {
		t.Fatal("collected group's leader was reused")
	}
	if e := ld2.Epoch(); e > epochBefore+1 {
		t.Fatalf("recreated group epoch %d continues old trajectory (was %d)", e, epochBefore)
	}
}

// TestDirectoryThousandGroups pins the tentpole acceptance criterion: one
// process serves >= 1024 concurrent groups, each with a real joined member,
// all over a handful of multiplexed sockets.
func TestDirectoryThousandGroups(t *testing.T) {
	if testing.Short() {
		t.Skip("1024 groups is a long test")
	}
	cfg := dirConfig(t)
	cfg.MaxDynamic = -1
	d, addr := startDirectory(t, cfg)

	const groups = 1024
	const sockets = 8
	muxes := make([]*transport.Mux, sockets)
	for i := range muxes {
		m, err := transport.DialMux(addr, transport.MuxConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		muxes[i] = m
	}

	var wg sync.WaitGroup
	errCh := make(chan error, groups)
	sem := make(chan struct{}, 64)
	members := make([]*member.Member, groups)
	for i := 0; i < groups; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			group := fmt.Sprintf("g%04d", i)
			c, err := muxes[i%sockets].Open(group)
			if err != nil {
				errCh <- err
				return
			}
			mb, err := member.Join(c, "m0", group, crypto.DeriveKey("m0", group, "pw-m0"))
			if err != nil {
				errCh <- fmt.Errorf("%s: %w", group, err)
				return
			}
			if err := mb.WaitReady(30 * time.Second); err != nil {
				errCh <- fmt.Errorf("%s: %w", group, err)
				return
			}
			members[i] = mb
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if got := len(d.Groups()); got != groups {
		t.Fatalf("%d groups, want %d", got, groups)
	}
	// Every group is independently keyed and at its own (join-driven) epoch.
	for _, g := range []string{"g0000", "g0511", "g1023"} {
		ld, err := d.Lookup(g)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(ld.Members()); n != 1 {
			t.Fatalf("%s members = %d, want 1", g, n)
		}
	}
	for _, mb := range members {
		mb.Leave()
	}
}
