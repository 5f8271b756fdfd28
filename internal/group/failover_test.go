package group

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"enclaves/internal/core"
	"enclaves/internal/crypto"
	"enclaves/internal/faultnet"
	"enclaves/internal/lkh"
	"enclaves/internal/member"
	"enclaves/internal/metrics"
	"enclaves/internal/replica"
	"enclaves/internal/transport"
	"enclaves/internal/wire"
)

// newReplKey makes a replication key for tests.
func newReplKey(t *testing.T) crypto.Key {
	t.Helper()
	k, err := crypto.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestReplicationMirrorsState: a standby subscribed over the sealed channel
// converges to the primary's membership, epoch, group key, and audit
// high-water mark through joins, leaves, and rekeys.
func TestReplicationMirrorsState(t *testing.T) {
	kr := newReplKey(t)
	users := []string{"alice", "bob", "carol"}
	keys := make(map[string]crypto.Key, len(users))
	for _, u := range users {
		keys[u] = crypto.DeriveKey(u, leaderName, u+"-pw")
	}
	var audit struct {
		mu  sync.Mutex
		n   uint64
		max uint64
	}
	g, err := NewLeader(Config{
		Name: leaderName, Users: keys, Rekey: DefaultRekeyPolicy(),
		ReplKey: kr, ReplPing: 10 * time.Millisecond,
		OnEvent: func(e Event) {
			audit.mu.Lock()
			audit.n++
			if e.Seq > audit.max {
				audit.max = e.Seq
			}
			audit.mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	net := NewMemNetworkForTest(t)
	l, err := net.Listen(leaderName)
	if err != nil {
		t.Fatal(err)
	}
	go g.Serve(l)
	t.Cleanup(func() { g.Close(); l.Close() })

	sb, err := replica.NewStandby(replica.StandbyConfig{
		Standby: "standby", Primary: leaderName, Key: kr,
		Dial:    func() (transport.Conn, error) { return net.Dial(leaderName) },
		Silence: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Stop()
	waitFor(t, "standby synced", sb.Synced)

	alice := join(t, net, "alice")
	defer alice.Leave()
	bob := join(t, net, "bob")
	carol := join(t, net, "carol")
	defer carol.Leave()

	waitFor(t, "replica sees three members", func() bool {
		st := sb.State()
		return len(st.Members) == 3 && st.Epoch == g.Epoch()
	})

	if err := bob.Leave(); err != nil {
		t.Fatal(err)
	}
	if err := g.Rekey(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "replica converges after leave+rekey", func() bool {
		st := sb.State()
		key, epoch := g.GroupKey()
		if len(st.Members) != 2 || st.Epoch != epoch || !st.GroupKey.Equal(key) {
			return false
		}
		_, hasAlice := st.Members["alice"]
		_, hasCarol := st.Members["carol"]
		return hasAlice && hasCarol
	})

	// The replicated audit high-water mark tracks the primary's trace.
	waitFor(t, "audit mark replicated", func() bool {
		audit.mu.Lock()
		max := audit.max
		audit.mu.Unlock()
		return sb.State().AuditSeq >= max && max > 0
	})
	if st := sb.State(); st.Primary != leaderName {
		t.Fatalf("replica primary = %q", st.Primary)
	}
}

// TestStandbyRejectsWrongKey: a subscriber without K_r gets no state.
func TestStandbyRejectsWrongKey(t *testing.T) {
	kr := newReplKey(t)
	g, err := NewLeader(Config{Name: leaderName, Users: map[string]crypto.Key{}, ReplKey: kr})
	if err != nil {
		t.Fatal(err)
	}
	net := NewMemNetworkForTest(t)
	l, err := net.Listen(leaderName)
	if err != nil {
		t.Fatal(err)
	}
	go g.Serve(l)
	t.Cleanup(func() { g.Close(); l.Close() })

	wrong := newReplKey(t)
	sb, err := replica.NewStandby(replica.StandbyConfig{
		Standby: "standby", Primary: leaderName, Key: wrong,
		Dial:    func() (transport.Conn, error) { return net.Dial(leaderName) },
		Silence: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Stop()
	// The impostor never syncs; its silence detector eventually declares the
	// primary dead (it cannot tell "refused" from "gone" — and must not:
	// that distinction would leak whether K_r was close).
	select {
	case <-sb.Dead():
	case <-time.After(5 * time.Second):
		t.Fatal("standby with wrong key neither synced nor timed out")
	}
	if sb.Synced() {
		t.Fatal("standby synced without the replication key")
	}
}

// TestFailoverResume is the kill-the-primary acceptance test: members
// attached through auto-rejoining sessions, the primary silenced mid-run
// (listener closed, every link severed — no FIN, just silence), the standby
// promoted. Every live session must re-attach to the promoted leader through
// the resumption sub-protocol — zero password re-handshakes — under exactly
// one post-promotion rekey, with the audit trace continuing past the
// replicated high-water mark.
func TestFailoverResume(t *testing.T) {
	const n = 20
	prev := metrics.Enabled()
	metrics.Enable()
	defer func() {
		if !prev {
			metrics.Disable()
		}
	}()

	kr := newReplKey(t)
	names := make([]string, n)
	keys := make(map[string]crypto.Key, n)
	for i := range names {
		names[i] = fmt.Sprintf("user%02d", i)
		keys[names[i]] = crypto.DeriveKey(names[i], leaderName, names[i]+"-pw")
	}
	primary, err := NewLeader(Config{
		Name: leaderName, Users: keys, Rekey: DefaultRekeyPolicy(),
		ReplKey: kr, ReplPing: 20 * time.Millisecond,
		Liveness: Liveness{HeartbeatInterval: 50 * time.Millisecond, AckTimeout: 5 * time.Second},
		OnEvent:  func(Event) {}, // arm the audit stream: the trace must survive promotion
	})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()

	net := NewMemNetworkForTest(t)
	primL, err := net.Listen("primary")
	if err != nil {
		t.Fatal(err)
	}
	go primary.Serve(primL)

	// All links to the primary run through the fault network so SeverAll is
	// the kill switch; the standby's address is dialed clean.
	fn := faultnet.NewNetwork(net.Dial, faultnet.Plan{})
	sb, err := replica.NewStandby(replica.StandbyConfig{
		Standby: "standby", Primary: leaderName, Key: kr,
		Dial:    func() (transport.Conn, error) { return fn.Dial("primary") },
		Silence: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Stop()

	sessions := make([]*member.Session, n)
	for i, u := range names {
		s, err := member.NewSession(member.SessionConfig{
			User: u,
			Endpoints: []member.Endpoint{
				{Leader: leaderName, LongTerm: keys[u], Dial: func() (transport.Conn, error) { return fn.Dial("primary") }},
				{Leader: leaderName, LongTerm: keys[u], Dial: func() (transport.Conn, error) { return net.Dial("standby") }},
			},
			Backoff:        10 * time.Millisecond,
			SilenceTimeout: 300 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("session %s: %v", u, err)
		}
		sessions[i] = s
		defer s.Close()
	}
	waitFor(t, "all sessions up on the primary", func() bool {
		e := primary.Epoch()
		for _, s := range sessions {
			if !s.Up() || s.Epoch() != e {
				return false
			}
		}
		return len(primary.Members()) == n
	})
	waitFor(t, "standby synced with full membership", func() bool {
		return sb.Synced() && len(sb.State().Members) == n
	})
	// Let in-flight acks and their SessionSync deltas land so every
	// replicated nonce is current: a member whose last ack is still in
	// flight at the kill would resume with a nonce the replica never saw.
	waitFor(t, "replica caught up with every member's pipeline", func() bool {
		return sb.State().Epoch == primary.Epoch() && replicaCaughtUp(primary, sb)
	})

	epochAtKill := primary.Epoch()
	resumesBefore := counterVal(t, "group_resumes_total")
	joinsBefore := counterVal(t, "group_joins_total")

	// Kill: no FIN reaches anyone — links blackhole and new dials fail.
	primL.Close()
	fn.SeverAll()

	killed := time.Now()
	select {
	case <-sb.Dead():
	case <-time.After(10 * time.Second):
		t.Fatal("standby never declared the primary dead")
	}
	detection := time.Since(killed)

	st := sb.State()
	sb.Stop()
	if st.AuditSeq == 0 || len(st.Members) != n {
		t.Fatalf("replica at promotion: %d members, audit seq %d", len(st.Members), st.AuditSeq)
	}

	var promotedAudit struct {
		mu     sync.Mutex
		events []Event
	}
	promoted, err := Promote(Config{
		Users: keys, Rekey: DefaultRekeyPolicy(),
		Liveness: Liveness{HeartbeatInterval: 50 * time.Millisecond, AckTimeout: 5 * time.Second},
		OnEvent: func(e Event) {
			promotedAudit.mu.Lock()
			promotedAudit.events = append(promotedAudit.events, e)
			promotedAudit.mu.Unlock()
		},
	}, st)
	if err != nil {
		t.Fatal(err)
	}
	defer promoted.Close()
	if promoted.Name() != leaderName {
		t.Fatalf("promoted leader did not assume the primary's identity: %q", promoted.Name())
	}
	if promoted.ResumableSessions() != n {
		t.Fatalf("resumable sessions = %d, want %d", promoted.ResumableSessions(), n)
	}
	if e := promoted.Epoch(); e != epochAtKill+1 {
		t.Fatalf("post-promotion epoch = %d, want exactly one rekey past %d", e, epochAtKill)
	}
	sbL, err := net.Listen("standby")
	if err != nil {
		t.Fatal(err)
	}
	go promoted.Serve(sbL)
	// Deferred, not t.Cleanup: it must run before promoted.Close and the
	// sessions' Close, or a session caught mid-redial waits forever in Dial
	// on a listener nobody accepts from.
	defer sbL.Close()

	deadline := time.Now().Add(20 * time.Second)
	allResumed := func() bool {
		e := promoted.Epoch()
		for _, s := range sessions {
			if !s.Up() || s.Epoch() != e {
				return false
			}
		}
		return len(promoted.Members()) == n
	}
	for !allResumed() {
		if time.Now().After(deadline) {
			t.Fatalf("sessions never converged on the promoted leader: %d members, resumes=%d",
				len(promoted.Members()), counterVal(t, "group_resumes_total")-resumesBefore)
		}
		time.Sleep(5 * time.Millisecond)
	}
	failover := time.Since(killed)

	// Every session re-attached via resumption, none via password handshake.
	resumes := counterVal(t, "group_resumes_total") - resumesBefore
	joins := counterVal(t, "group_joins_total") - joinsBefore
	if resumes != n {
		t.Errorf("resumes = %d, want %d", resumes, n)
	}
	if joins != 0 {
		t.Errorf("%d password re-handshakes during failover, want 0", joins)
	}

	// Exactly one post-promotion rekey: the promoted epoch is still one past
	// the kill point with every member on it (zero pre-promotion keys held),
	// and the audit log shows a single Rekeyed event.
	if e := promoted.Epoch(); e != epochAtKill+1 {
		t.Errorf("promoted epoch drifted to %d, want %d", e, epochAtKill+1)
	}
	// OnEvent runs on the audit dispatcher goroutine, so the last Resumed
	// events may still be in flight when the sessions converge.
	waitFor(t, "every Resumed event in the promoted audit log", func() bool {
		promotedAudit.mu.Lock()
		defer promotedAudit.mu.Unlock()
		resumed := 0
		for _, e := range promotedAudit.events {
			if e.Kind == EventResumed {
				resumed++
			}
		}
		return resumed >= n
	})
	promotedAudit.mu.Lock()
	rekeys, resumedEvents, joinedEvents := 0, 0, 0
	minSeq := uint64(0)
	for _, e := range promotedAudit.events {
		switch e.Kind {
		case EventRekeyed:
			rekeys++
		case EventResumed:
			resumedEvents++
		case EventJoined:
			joinedEvents++
		}
		if minSeq == 0 || e.Seq < minSeq {
			minSeq = e.Seq
		}
	}
	promotedAudit.mu.Unlock()
	if rekeys != 1 {
		t.Errorf("promoted leader emitted %d Rekeyed events, want exactly 1", rekeys)
	}
	if resumedEvents != n || joinedEvents != 0 {
		t.Errorf("audit: %d Resumed + %d Joined, want %d + 0", resumedEvents, joinedEvents, n)
	}
	// The trace continues past the replicated high-water mark, never
	// restarting from 1.
	if minSeq <= st.AuditSeq {
		t.Errorf("promoted audit trace restarted: min seq %d <= replicated mark %d", minSeq, st.AuditSeq)
	}

	// The group is actually alive under the post-promotion key.
	if err := sessions[0].SendData([]byte("after failover")); err != nil {
		t.Fatal(err)
	}
	got := 0
	recvDeadline := time.Now().Add(10 * time.Second)
	for got < n-1 && time.Now().Before(recvDeadline) {
		for _, s := range sessions[1:] {
			if ev, ok := s.TryNext(); ok && ev.Kind == member.EventData && string(ev.Data) == "after failover" {
				got++
			}
		}
		time.Sleep(time.Millisecond)
	}
	if got != n-1 {
		t.Errorf("post-failover multicast reached %d/%d members", got, n-1)
	}

	t.Logf("failover: detection %v, full resumption %v, %d/%d resumed, 0 rejoins", detection, failover, resumes, n)
}

// replicaCaughtUp reports whether no member has an AdminMsg awaiting its ack
// on g and sb replicates the nonce and sequence each pipeline rests on.
func replicaCaughtUp(g *Leader, sb *replica.Standby) bool {
	rep := sb.State().Members
	for _, s := range g.reg.appendAll(nil, "") {
		s.mu.Lock()
		es, ok := s.engine.ExportState()
		idle := len(s.unacked) == 0
		s.mu.Unlock()
		r, have := rep[s.user]
		if !ok || !idle || !have || !r.Nonce.Equal(es.Nonce) || r.Seq != es.Seq {
			return false
		}
	}
	return true
}

// counterVal reads one counter from the global snapshot.
func counterVal(t testing.TB, name string) uint64 {
	t.Helper()
	v, ok := metrics.Default.Snapshot()[name]
	if !ok {
		t.Fatalf("metric %q not registered", name)
	}
	return v.(uint64)
}

// TestResumeIsOneShot: a second Resume for an already-resumed session is
// refused (the replicated entry is claimed on success), forcing the full
// handshake — a captured Resume frame cannot be replayed into a second
// session. A password rejoin consumes the entry just the same: a Resume the
// adversary withheld in flight is still fresh against the replicated nonce,
// and must not displace the session that superseded it.
func TestResumeIsOneShot(t *testing.T) {
	kr := newReplKey(t)
	keys := map[string]crypto.Key{
		"alice": crypto.DeriveKey("alice", leaderName, "alice-pw"),
		"bob":   crypto.DeriveKey("bob", leaderName, "bob-pw"),
	}
	primary, err := NewLeader(Config{Name: leaderName, Users: keys, ReplKey: kr, ReplPing: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	net := NewMemNetworkForTest(t)
	primL, err := net.Listen("primary")
	if err != nil {
		t.Fatal(err)
	}
	go primary.Serve(primL)

	sb, err := replica.NewStandby(replica.StandbyConfig{
		Standby: "standby", Primary: leaderName, Key: kr,
		Dial:    func() (transport.Conn, error) { return net.Dial("primary") },
		Silence: time.Minute, // stopped manually; dead detection not under test
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Stop()

	conn, err := net.Dial("primary")
	if err != nil {
		t.Fatal(err)
	}
	alice, err := member.Join(conn, "alice", leaderName, keys["alice"])
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	bobConn, err := net.Dial("primary")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := member.Join(bobConn, "bob", leaderName, keys["bob"])
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "alice and bob replicated, quiescent", func() bool {
		st := sb.State()
		bs, ok := bob.ResumeState()
		return ok && len(st.Members) == 2 && st.Epoch == primary.Epoch() &&
			st.Members["bob"].Nonce.Equal(bs.Nonce)
	})

	st := sb.State()
	sb.Stop()
	var audit eventLog
	promoted, err := Promote(Config{Users: keys, OnEvent: audit.sink}, st)
	if err != nil {
		t.Fatal(err)
	}
	defer promoted.Close()
	sbL, err := net.Listen("standby")
	if err != nil {
		t.Fatal(err)
	}
	go promoted.Serve(sbL)
	t.Cleanup(func() { sbL.Close() })

	rs, ok := alice.ResumeState()
	if !ok {
		t.Fatal("no resume state from a connected member")
	}
	c1, err := net.Dial("standby")
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := member.Resume(c1, rs, keys["alice"], member.Options{})
	if err != nil {
		t.Fatalf("first resume: %v", err)
	}
	defer resumed.Leave()
	if promoted.ResumableSessions() != 1 {
		t.Fatalf("resumable sessions = %d after alice resumed, want 1 (bob's)", promoted.ResumableSessions())
	}

	// Second resume from the same (now stale) state must be refused.
	c2, err := net.Dial("standby")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := member.Resume(c2, rs, keys["alice"], member.Options{SilenceTimeout: 300 * time.Millisecond}); err == nil {
		t.Fatal("stale resume state produced a second session")
	}
	c2.Close()

	// Bob's Resume is captured and dropped in flight; bob gives up and
	// rejoins by password.
	bs, ok := bob.ResumeState()
	if !ok {
		t.Fatal("no resume state from bob")
	}
	eng, err := core.ResumeMemberSession("bob", leaderName, keys["bob"], bs)
	if err != nil {
		t.Fatal(err)
	}
	captured, err := eng.StartResume()
	if err != nil {
		t.Fatal(err)
	}
	c3, err := net.Dial("standby")
	if err != nil {
		t.Fatal(err)
	}
	rejoined, err := member.Join(c3, "bob", leaderName, keys["bob"])
	if err != nil {
		t.Fatalf("password rejoin: %v", err)
	}
	defer rejoined.Leave()
	if err := rejoined.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n := promoted.ResumableSessions(); n != 0 {
		t.Fatalf("resumable sessions = %d after bob's password rejoin, want 0", n)
	}

	// The replay, on a fresh connection, finds nothing to resume.
	c4, err := net.Dial("standby")
	if err != nil {
		t.Fatal(err)
	}
	defer c4.Close()
	if err := c4.Send(captured); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "replayed Resume rejected and audited", func() bool {
		for _, e := range audit.snapshot() {
			if e.Kind == EventRejected && e.User == "bob" && e.Detail == "resume: no resumable session" {
				return true
			}
		}
		return false
	})
	if n := audit.count(EventResumed); n != 1 {
		t.Errorf("%d Resumed events, want 1 (alice only)", n)
	}
	// Bob's live session was not displaced: it still delivers.
	if err := resumed.SendData([]byte("still here")); err != nil {
		t.Fatal(err)
	}
	waitEvent(t, rejoined, "multicast on bob's rejoined session", func(e member.Event) bool {
		return e.Kind == member.EventData && string(e.Data) == "still here"
	})
}

// TestPromoteDropsUnknownUserWithAudit: a replicated session for a user the
// standby is not configured to serve is refused at promotion — and the
// refusal must be VISIBLE: an EventLeft with a diagnostic detail lands in
// the audit stream (so resumes + fresh joins reconcile against the
// pre-crash membership), and the user's leaf leaves the promoted key tree.
func TestPromoteDropsUnknownUserWithAudit(t *testing.T) {
	tree, err := lkh.New(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"alice", "mallory"} {
		if err := tree.Join(u); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tree.RotateDirty(); err != nil {
		t.Fatal(err)
	}
	st := replica.State{
		Primary: leaderName, Epoch: 3, GroupKey: tree.RootKey(), AuditSeq: 7,
		Members: map[string]wire.ReplMember{
			"alice":   {SessionKey: newReplKey(t)},
			"mallory": {SessionKey: newReplKey(t)},
		},
		LKHArity: 2,
		Tree:     make(map[uint64]wire.ReplLKHNode),
	}
	for _, r := range tree.Records() {
		st.Tree[uint64(r.ID)] = toReplNode(r)
	}

	var audit struct {
		mu     sync.Mutex
		events []Event
	}
	promoted, err := Promote(Config{
		Users: map[string]crypto.Key{"alice": newReplKey(t)},
		OnEvent: func(e Event) {
			audit.mu.Lock()
			audit.events = append(audit.events, e)
			audit.mu.Unlock()
		},
	}, st)
	if err != nil {
		t.Fatal(err)
	}
	defer promoted.Close()

	if n := promoted.ResumableSessions(); n != 1 {
		t.Errorf("resumable sessions = %d, want 1 (mallory dropped)", n)
	}
	// Audit events are delivered on their own goroutine; poll for the drop.
	droppedEvent := func() (Event, bool) {
		audit.mu.Lock()
		defer audit.mu.Unlock()
		for _, e := range audit.events {
			if e.Kind == EventLeft && e.User == "mallory" {
				return e, true
			}
		}
		return Event{}, false
	}
	waitFor(t, "EventLeft for the dropped session", func() bool {
		_, ok := droppedEvent()
		return ok
	})
	if e, _ := droppedEvent(); e.Detail != "not resumable on standby" {
		t.Errorf("drop detail = %q, want %q", e.Detail, "not resumable on standby")
	}

	promoted.mu.Lock()
	members := promoted.tree.Members()
	promoted.mu.Unlock()
	if len(members) != 1 || members[0] != "alice" {
		t.Errorf("promoted tree members = %v, want [alice]", members)
	}
	if e := promoted.Epoch(); e != st.Epoch+1 {
		t.Errorf("promoted epoch = %d, want %d (one forced rotation)", e, st.Epoch+1)
	}
}
