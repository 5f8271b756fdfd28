package enclaves

import (
	"flag"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"enclaves/internal/core"
	"enclaves/internal/crypto"
	"enclaves/internal/faultnet"
	"enclaves/internal/group"
	"enclaves/internal/member"
	"enclaves/internal/metrics"
	"enclaves/internal/transport"
	"enclaves/internal/wire"
)

// counterValue reads one counter from the global metrics snapshot.
func counterValue(t testing.TB, name string) uint64 {
	t.Helper()
	v, ok := metrics.Default.Snapshot()[name]
	if !ok {
		t.Fatalf("metric %q not registered", name)
	}
	return v.(uint64)
}

// chaosSeedFlag reruns the soak under a specific fault seed:
//
//	go test -run TestChaosSoak -chaosseed=1337
//
// Every probabilistic decision the fault network makes is drawn from this
// seed, so a failing seed replays the same drops, duplicates, reorderings,
// and partitions (modulo scheduler timing).
var chaosSeedFlag = flag.Int64("chaosseed", 20010621, "fault-injection seed for TestChaosSoak")

// TestChaosSoak is the liveness layer's end-to-end exercise: a leader with
// heartbeats and ack deadlines, members auto-rejoining through a seeded
// fault-injection network (drops, duplication, reordering, one timed
// partition), and one member that dies silently mid-run.
//
// After the chaos window heals, the run must satisfy:
//   - the silently dead member is expelled (EventEvicted, ack-deadline
//     cause) and triggers the on-leave rekey, closing the forward-secrecy
//     hole its death opened;
//   - every surviving member converges to the leader's membership and epoch;
//   - the leader's epoch never moves backwards;
//   - a post-heal multicast reaches every survivor, proving the group key
//     is consistent.
//
// The one plan runs over both media the fault link can sit in front of: an
// in-memory network, and TCP loopback where the frame-level faults stack on
// top of a byte-level one (every socket write and read is chunked, see
// chunked in chaos_tcp_test.go).
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	t.Run("mem", func(t *testing.T) {
		inner := transport.NewMemNetwork()
		defer inner.Close()
		l, err := inner.Listen("leader")
		if err != nil {
			t.Fatal(err)
		}
		chaosSoak(t, l, inner.Dial)
	})
	t.Run("tcp", func(t *testing.T) {
		l, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		var dials atomic.Int64
		chaosSoak(t, l, func(addr string) (transport.Conn, error) {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return transport.NewNetConn(chunked(nc, *chaosSeedFlag+dials.Add(1)))
		})
	})
}

// chaosSoak is the soak itself, against a leader serving l and members
// dialing l.Addr() through dial.
func chaosSoak(t *testing.T, l transport.Listener, dial func(addr string) (transport.Conn, error)) {
	const (
		leaderName = "leader"
		survivors  = 4
		victim     = "victim"
	)
	users := append(userNames(survivors), victim)
	keys := benchKeys(users...)

	// Soak with metrics enabled: the counters must agree with what the audit
	// log and the victim's wire actually observed (asserted at the end).
	// Counters are process-lifetime totals, so assertions work on deltas.
	prevMetrics := metrics.Enabled()
	metrics.Enable()
	defer func() {
		if !prevMetrics {
			metrics.Disable()
		}
	}()
	evictionsBefore := counterValue(t, "group_evictions_total")
	retransmitsBefore := counterValue(t, "group_retransmits_total")

	var audit struct {
		mu     sync.Mutex
		events []group.Event
	}
	findEvent := func(kind group.EventKind, user string) (group.Event, bool) {
		audit.mu.Lock()
		defer audit.mu.Unlock()
		for _, e := range audit.events {
			if e.Kind == kind && e.User == user {
				return e, true
			}
		}
		return group.Event{}, false
	}

	g, err := group.NewLeader(group.Config{
		Name:    leaderName,
		Users:   keys,
		Rekey:   group.DefaultRekeyPolicy(),
		OnEvent: func(e group.Event) { audit.mu.Lock(); audit.events = append(audit.events, e); audit.mu.Unlock() },
		// The ack deadline must exceed the partition length (200ms below):
		// a live member with an AdminMsg outstanding across the whole
		// blackhole still recovers via retransmit + duplicate re-ack, so
		// eviction stays reserved for the actually dead.
		Liveness: group.Liveness{
			HeartbeatInterval: 30 * time.Millisecond,
			AckTimeout:        400 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	go g.Serve(l)

	// The fault plan every member link runs through (the i-th dial derives
	// its own PRNG stream from Seed+i). Windows are per connection, measured
	// from dial: ~8% loss both ways, reordering, duplication, one 200ms
	// blackhole partition, all healing after 900ms so convergence can be
	// asserted unconditionally.
	fnet := faultnet.NewNetwork(dial, faultnet.Plan{
		Seed:       *chaosSeedFlag,
		Outbound:   faultnet.DirFaults{Drop: 0.08, Dup: 0.05, Reorder: 0.15},
		Inbound:    faultnet.DirFaults{Drop: 0.08, Reorder: 0.10},
		Partitions: []faultnet.Partition{{Start: 300 * time.Millisecond, Stop: 500 * time.Millisecond}},
		Heal:       900 * time.Millisecond,
	})

	// Leader epoch must be monotonic throughout; sample it concurrently.
	var epochViolations atomic.Int64
	samplerDone := make(chan struct{})
	go func() {
		var last uint64
		for {
			e := g.Epoch()
			if e < last {
				epochViolations.Add(1)
			}
			last = e
			select {
			case <-samplerDone:
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
	}()

	// Survivors join through the fault network with auto-rejoin: evictions
	// caused by lost acks during the chaos window are repaired by the
	// Session, silence is detected by the watchdog.
	sessions := make([]*member.Session, survivors)
	var seen [](*payloadSet)
	for i := 0; i < survivors; i++ {
		u := users[i]
		cfg := member.SessionConfig{
			User: u,
			Endpoints: []member.Endpoint{{
				Leader:   leaderName,
				LongTerm: keys[u],
				Dial:     func() (transport.Conn, error) { return fnet.Dial(l.Addr()) },
			}},
			Backoff:        20 * time.Millisecond,
			ReadyTimeout:   time.Second,
			SilenceTimeout: 400 * time.Millisecond,
		}
		// NewSession requires its first round to succeed, and under chaos a
		// single lost ack can sink one attempt; retrying here is the
		// application-level analogue of the Session's own rejoin loop.
		var s *member.Session
		for attempt := 0; ; attempt++ {
			s, err = member.NewSession(cfg)
			if err == nil {
				break
			}
			if attempt >= 20 {
				t.Fatalf("join %s: %v", u, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
		defer s.Close()
		sessions[i] = s
		ps := newPayloadSet()
		seen = append(seen, ps)
		go func() {
			for {
				ev, err := s.Next()
				if err != nil {
					return
				}
				if ev.Kind == member.EventData {
					ps.add(string(ev.Data))
				}
			}
		}()
	}

	// The victim authenticates over a clean link, then dies silently: the
	// conn stays open, nothing is ever acknowledged again. Only the
	// liveness layer can notice.
	victimConn := silentJoin(t, dial, l.Addr(), leaderName, victim, keys[victim])
	defer victimConn.Close()
	// Drain so the leader's writes don't pile up in the pipe, counting
	// duplicate AdminMsg frames along the way: the victim's link is clean
	// (no faultnet), so every repeated payload it sees IS a liveness-layer
	// retransmission of the unacknowledged head frame.
	var victimDups atomic.Int64
	go func() {
		adminSeen := make(map[string]int)
		for {
			e, err := victimConn.Recv()
			if err != nil {
				return
			}
			if e.Type == wire.TypeAdminMsg {
				adminSeen[string(e.Payload)]++
				if adminSeen[string(e.Payload)] > 1 {
					victimDups.Add(1)
				}
			}
		}
	}()
	waitUntil(t, "victim accepted", 10*time.Second, func() bool {
		for _, m := range g.Members() {
			if m == victim {
				return true
			}
		}
		return false
	})
	victimAccepted := time.Now()

	// Churn: multicast through the faulty links for the whole chaos window.
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		deadline := time.Now().Add(1500 * time.Millisecond)
		for n := 0; time.Now().Before(deadline); n++ {
			<-tick.C
			s := sessions[n%survivors]
			s.SendData([]byte("churn")) // ErrDown while rejoining is fine
		}
	}()

	// The silently dead member must be expelled within the ack deadline
	// (generous wall-clock bound for loaded CI boxes).
	waitUntil(t, "victim evicted", 10*time.Second, func() bool {
		_, ok := findEvent(group.EventEvicted, victim)
		return ok
	})
	if d := time.Since(victimAccepted); d > 5*time.Second {
		t.Fatalf("eviction took %v after acceptance", d)
	}
	ev, _ := findEvent(group.EventEvicted, victim)
	if !strings.Contains(ev.Detail, "ack deadline") {
		t.Fatalf("eviction detail = %q, want ack-deadline cause", ev.Detail)
	}
	// The eviction is a leave: the on-leave rekey fires inside the eviction,
	// cause before effect, so the EventEvicted record carries the epoch it
	// happened in and the next EventRekeyed is its rotation to the next one.
	waitUntil(t, "on-leave rekey accompanying the eviction", 10*time.Second, func() bool {
		audit.mu.Lock()
		defer audit.mu.Unlock()
		evicted := false
		for _, e := range audit.events {
			switch {
			case e.Kind == group.EventEvicted && e.User == victim:
				evicted = true
			case evicted && e.Kind == group.EventRekeyed:
				return e.Epoch == ev.Epoch+1 && e.Detail == "leave "+victim
			}
		}
		return false
	})

	<-churnDone

	// Convergence: after every link has healed, all survivors are up with
	// the leader's exact membership and epoch, and the victim stayed out.
	want := append([]string(nil), users[:survivors]...)
	sort.Strings(want)
	waitUntil(t, "survivors converge to leader view and epoch", 20*time.Second, func() bool {
		lm := append([]string(nil), g.Members()...)
		sort.Strings(lm)
		if !equalStrings(lm, want) {
			return false
		}
		epoch := g.Epoch()
		for _, s := range sessions {
			if !s.Up() || s.Epoch() != epoch {
				return false
			}
			sm := append([]string(nil), s.Members()...)
			sort.Strings(sm)
			if !equalStrings(sm, want) {
				return false
			}
		}
		return true
	})

	// Post-heal proof of a consistent group key: one multicast reaches every
	// other survivor.
	const probe = "post-heal-probe"
	waitUntil(t, "post-heal multicast reaches all survivors", 20*time.Second, func() bool {
		if err := sessions[0].SendData([]byte(probe)); err != nil {
			return false
		}
		for _, ps := range seen[1:] {
			if !ps.has(probe) {
				return false
			}
		}
		return true
	})

	close(samplerDone)
	if v := epochViolations.Load(); v != 0 {
		t.Fatalf("leader epoch moved backwards %d times", v)
	}

	// The fault network really did inject faults (the soak was not a clean
	// run in disguise).
	if s := fnet.Stats(); s.Dropped == 0 || s.Reordered == 0 {
		t.Fatalf("fault plan injected no faults: %+v", s)
	}

	// Metrics reconcile with ground truth. Every eviction increments the
	// counter and emits one EventEvicted on the (async) audit stream, so at
	// quiescence the delta and the audit count must be equal — survivor
	// evictions during the chaos window included.
	auditEvicted := func() uint64 {
		audit.mu.Lock()
		defer audit.mu.Unlock()
		var n uint64
		for _, e := range audit.events {
			if e.Kind == group.EventEvicted {
				n++
			}
		}
		return n
	}
	waitUntil(t, "eviction counter to reconcile with audit log", 10*time.Second, func() bool {
		return counterValue(t, "group_evictions_total")-evictionsBefore == auditEvicted()
	})

	// The victim's clean link saw the liveness layer at work: at least one
	// duplicate AdminMsg frame (the retransmitted unacked head), and every
	// such duplicate is accounted for by the retransmit counter. (The counter
	// may exceed the victim's duplicates — survivors behind lossy links are
	// retransmitted to as well.)
	dups := uint64(victimDups.Load())
	retransmits := counterValue(t, "group_retransmits_total") - retransmitsBefore
	if dups == 0 {
		t.Fatal("victim observed no duplicate AdminMsg frames; retransmission never reached the wire")
	}
	if retransmits < dups {
		t.Fatalf("retransmit counter %d < %d duplicate frames observed on the victim's clean link", retransmits, dups)
	}
	t.Logf("soak metrics: evictions=%d (== %d audit events) retransmits=%d victim_dups=%d heartbeats=%d rejoins=%d faultnet_dropped=%d",
		counterValue(t, "group_evictions_total")-evictionsBefore, auditEvicted(),
		retransmits, dups,
		counterValue(t, "group_heartbeats_total"),
		counterValue(t, "member_rejoins_total"),
		counterValue(t, "faultnet_dropped_total"))
}

// TestChaosSoakLarge drives the registry and fan-out at soak scale: ~512 members
// (500 bulk members joining in 64-way-concurrent waves under the flat rekey
// policy, 8 session-backed members riding the same fault plan as
// TestChaosSoak) plus one silently dead victim for the liveness layer.
//
// Beyond surviving, the run must reconcile: with DefaultRekeyPolicy every
// join, leave, and eviction into a non-empty group is exactly one rotation.
// At quiescence:
//
//	joins + leaves + evictions == rekeys
//	final epoch == 1 + rekeys
//
// and the join storm must have folded keys (a member behind an
// unacknowledged AdminMsg gets the newest of the keys queued there), while
// every surviving bulk member still converges to the final epoch — the
// fan-out really delivered the last NewGroupKey.
func TestChaosSoakLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const (
		leaderName = "leader"
		nsess      = 8
		leavers    = 32
		victim     = "victim"
	)
	bulk := 500
	if raceEnabled {
		// The race detector's slowdown makes the quadratic join-storm setup
		// a timeout at full size; the interleavings it checks are all
		// present at a fraction of the membership.
		bulk = 96
	}
	bulkNames := userNames(bulk)
	sessNames := make([]string, nsess)
	for i := range sessNames {
		sessNames[i] = fmt.Sprintf("chaos%d", i)
	}
	all := append(append([]string{}, bulkNames...), sessNames...)
	all = append(all, victim)
	keys := benchKeys(all...)

	prevMetrics := metrics.Enabled()
	metrics.Enable()
	defer func() {
		if !prevMetrics {
			metrics.Disable()
		}
	}()
	evictionsBefore := counterValue(t, "group_evictions_total")
	foldedBefore := counterValue(t, "group_keys_folded_total")

	var audit struct {
		mu     sync.Mutex
		events []group.Event
	}
	countKind := func(k group.EventKind) uint64 {
		audit.mu.Lock()
		defer audit.mu.Unlock()
		var n uint64
		for _, e := range audit.events {
			if e.Kind == k {
				n++
			}
		}
		return n
	}
	findEvent := func(kind group.EventKind, user string) (group.Event, bool) {
		audit.mu.Lock()
		defer audit.mu.Unlock()
		for _, e := range audit.events {
			if e.Kind == kind && e.User == user {
				return e, true
			}
		}
		return group.Event{}, false
	}

	g, err := group.NewLeader(group.Config{
		Name:    leaderName,
		Users:   keys,
		Rekey:   group.DefaultRekeyPolicy(),
		OnEvent: func(e group.Event) { audit.mu.Lock(); audit.events = append(audit.events, e); audit.mu.Unlock() },
		Liveness: group.Liveness{
			HeartbeatInterval: 100 * time.Millisecond,
			AckTimeout:        2 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	inner := transport.NewMemNetwork()
	defer inner.Close()
	l, err := inner.Listen(leaderName)
	if err != nil {
		t.Fatal(err)
	}
	go g.Serve(l)

	// Epoch monotonicity under the full storm.
	var epochViolations atomic.Int64
	samplerDone := make(chan struct{})
	go func() {
		var last uint64
		for {
			e := g.Epoch()
			if e < last {
				epochViolations.Add(1)
			}
			last = e
			select {
			case <-samplerDone:
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
	}()

	// The bulk join storm: 64-way-concurrent authenticated joins over clean
	// links, every member draining (and thereby acking) on its own goroutine.
	members := joinAll(t, inner, bulkNames, keys)
	for _, m := range members {
		go drainMember(m)
	}
	waitUntil(t, "bulk members registered", 60*time.Second, func() bool {
		return len(g.Members()) == bulk
	})

	// The chaos contingent: sessions with auto-rejoin behind the seeded
	// fault plan (drops, dup, reorder, one partition, healing at 900ms).
	fnet := faultnet.NewNetwork(inner.Dial, faultnet.Plan{
		Seed:       *chaosSeedFlag,
		Outbound:   faultnet.DirFaults{Drop: 0.08, Dup: 0.05, Reorder: 0.15},
		Inbound:    faultnet.DirFaults{Drop: 0.08, Reorder: 0.10},
		Partitions: []faultnet.Partition{{Start: 300 * time.Millisecond, Stop: 500 * time.Millisecond}},
		Heal:       900 * time.Millisecond,
	})
	sessions := make([]*member.Session, nsess)
	var seen [](*payloadSet)
	for i := 0; i < nsess; i++ {
		u := sessNames[i]
		cfg := member.SessionConfig{
			User: u,
			Endpoints: []member.Endpoint{{
				Leader:   leaderName,
				LongTerm: keys[u],
				Dial:     func() (transport.Conn, error) { return fnet.Dial(leaderName) },
			}},
			Backoff:        20 * time.Millisecond,
			ReadyTimeout:   5 * time.Second,
			SilenceTimeout: 2 * time.Second,
		}
		var s *member.Session
		for attempt := 0; ; attempt++ {
			s, err = member.NewSession(cfg)
			if err == nil {
				break
			}
			if attempt >= 20 {
				t.Fatalf("join %s: %v", u, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
		defer s.Close()
		sessions[i] = s
		ps := newPayloadSet()
		seen = append(seen, ps)
		go func() {
			for {
				ev, err := s.Next()
				if err != nil {
					return
				}
				if ev.Kind == member.EventData {
					ps.add(string(ev.Data))
				}
			}
		}()
	}

	// The victim authenticates on a clean link and never acks again; a drain
	// keeps the pipe from backing up so only the liveness layer can kill it.
	victimConn := silentJoin(t, inner.Dial, leaderName, leaderName, victim, keys[victim])
	defer victimConn.Close()
	go func() {
		for {
			if _, err := victimConn.Recv(); err != nil {
				return
			}
		}
	}()
	waitUntil(t, "victim accepted", 30*time.Second, func() bool {
		for _, m := range g.Members() {
			if m == victim {
				return true
			}
		}
		return false
	})

	// Multicast churn across the chaos window: every send now fans out to
	// ~510 outboxes.
	for round := 0; round < 30; round++ {
		sessions[round%nsess].SendData([]byte("churn")) // ErrDown while rejoining is fine
		time.Sleep(20 * time.Millisecond)
	}

	waitUntil(t, "victim evicted", 30*time.Second, func() bool {
		_, ok := findEvent(group.EventEvicted, victim)
		return ok
	})
	ev, _ := findEvent(group.EventEvicted, victim)
	if !strings.Contains(ev.Detail, "ack deadline") {
		t.Fatalf("eviction detail = %q, want ack-deadline cause", ev.Detail)
	}
	// The eviction's rotation lands: the group moves past the epoch the
	// victim last saw.
	waitUntil(t, "post-eviction rekey", 10*time.Second, func() bool {
		return g.Epoch() > ev.Epoch
	})

	// A leave burst on top: some bulk members sign off together.
	var wgLeave sync.WaitGroup
	for _, m := range members[:leavers] {
		wgLeave.Add(1)
		go func(m *member.Member) {
			defer wgLeave.Done()
			m.Leave()
		}(m)
	}
	wgLeave.Wait()
	survivors := members[leavers:]

	// Quiescence: all sessions healed and up, stable membership. The
	// reconciliation identity becoming true (and staying true) is itself
	// the quiescence signal.
	identity := func() (triggers, rekeys uint64, ok bool) {
		triggers = countKind(group.EventJoined) + countKind(group.EventLeft) + countKind(group.EventEvicted)
		rekeys = countKind(group.EventRekeyed)
		return triggers, rekeys, triggers == rekeys
	}
	waitUntil(t, "audit reconciliation identity", 60*time.Second, func() bool {
		if len(g.Members()) != bulk-leavers+nsess {
			return false
		}
		_, _, ok := identity()
		return ok
	})
	// A straggler change would show here: the identity must still hold and
	// the epoch must be exactly 1 + rotations.
	time.Sleep(100 * time.Millisecond)
	triggers, rekeys, ok := identity()
	if !ok {
		t.Fatalf("reconciliation broke after quiescence: %d triggers != %d rekeys", triggers, rekeys)
	}
	if e := g.Epoch(); e != 1+rekeys {
		t.Fatalf("epoch %d != 1 + %d audit rekeys", e, rekeys)
	}
	folded := counterValue(t, "group_keys_folded_total") - foldedBefore
	if folded == 0 {
		t.Fatal("a 500-member join storm folded no key; the ack clock never batched a burst")
	}

	// Every surviving bulk member converges on the final epoch: the fan-out
	// delivered the last NewGroupKey to all ~476 outboxes.
	waitUntil(t, "survivors converge to the final epoch", 60*time.Second, func() bool {
		want := g.Epoch()
		for _, m := range survivors {
			if m.Epoch() != want {
				return false
			}
		}
		return true
	})

	// Post-heal proof of a consistent group key across the chaos contingent.
	const probe = "post-heal-probe"
	waitUntil(t, "post-heal multicast reaches all sessions", 30*time.Second, func() bool {
		if err := sessions[0].SendData([]byte(probe)); err != nil {
			return false
		}
		for _, ps := range seen[1:] {
			if !ps.has(probe) {
				return false
			}
		}
		return true
	})

	close(samplerDone)
	if v := epochViolations.Load(); v != 0 {
		t.Fatalf("leader epoch moved backwards %d times", v)
	}
	if s := fnet.Stats(); s.Dropped == 0 {
		t.Fatalf("fault plan injected no faults: %+v", s)
	}
	// Metrics/audit agreement on evictions, as in the base soak.
	waitUntil(t, "eviction counter to reconcile with audit log", 10*time.Second, func() bool {
		return counterValue(t, "group_evictions_total")-evictionsBefore == countKind(group.EventEvicted)
	})
	t.Logf("large soak: members=%d triggers=%d rekeys=%d keys_folded=%d final_epoch=%d",
		len(g.Members()), triggers, rekeys, folded, g.Epoch())

	for _, m := range survivors {
		m.Leave()
	}
}

// silentJoin completes the three-message authenticated join with the core
// engine and then goes silent forever: the conn stays open, no frame is
// ever acknowledged. This is the failure mode the liveness layer exists
// for — a transport error never fires.
func silentJoin(t *testing.T, dial func(addr string) (transport.Conn, error), addr, leader, user string, key crypto.Key) transport.Conn {
	t.Helper()
	conn, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := core.NewMemberSession(user, leader, key)
	if err != nil {
		t.Fatal(err)
	}
	initReq, err := engine.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(initReq); err != nil {
		t.Fatal(err)
	}
	dist, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	ev, err := engine.Handle(dist)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(*ev.Reply); err != nil {
		t.Fatal(err)
	}
	return conn
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

type payloadSet struct {
	mu sync.Mutex
	m  map[string]bool
}

func newPayloadSet() *payloadSet { return &payloadSet{m: make(map[string]bool)} }

func (p *payloadSet) add(s string) {
	p.mu.Lock()
	p.m[s] = true
	p.mu.Unlock()
}

func (p *payloadSet) has(s string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.m[s]
}

func waitUntil(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
