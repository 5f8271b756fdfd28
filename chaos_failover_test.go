package enclaves

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"enclaves/internal/crypto"
	"enclaves/internal/faultnet"
	"enclaves/internal/group"
	"enclaves/internal/member"
	"enclaves/internal/metrics"
	"enclaves/internal/replica"
	"enclaves/internal/transport"
)

// TestChaosFailoverUnderChurn kills the primary in the middle of a join
// storm and promotes the standby. The first wave of members joins the
// primary through a seeded fault plan (drops, duplication, reordering) and
// is fully replicated before the kill; the second wave starts joining only
// after the primary is already dead — a genuine mid-storm crash where half
// the group has never authenticated anywhere.
//
// After the promoted standby takes over, the run must reconcile:
//   - every first-wave member re-attaches by RESUMING (no password
//     re-handshake), every second-wave member falls back to the full join
//     — the two counts are exact, not approximate;
//   - no resumed member ever holds a pre-promotion group key (every
//     EventResumed epoch is past the kill-point epoch);
//   - the rekey ledger balances across the promotion: joins + leaves +
//     evictions + the single forced promotion rotation == rekeys performed
//   - the one departure that empties the primary, and the promoted epoch
//     equals the replicated epoch plus the promoted leader's own rotations;
//   - the epoch is monotone across the crash (sampled continuously on the
//     primary, then on its successor);
//   - a post-failover multicast reaches every member of the reunited group.
//
// The primary rekeys through the logical key hierarchy, so the promotion
// rebuilds the replicated key tree and resuming members get their paths back
// inside the ResumeAck.
func TestChaosFailoverUnderChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const (
		leaderName = "leader"
		wave       = 8 // members per wave; wave 1 resumes, wave 2 full-joins
		heal       = 700 * time.Millisecond
	)
	names := make([]string, 2*wave)
	keys := make(map[string]crypto.Key, len(names))
	for i := range names {
		names[i] = fmt.Sprintf("fo%02d", i)
		keys[names[i]] = crypto.DeriveKey(names[i], leaderName, names[i]+"-pw")
	}

	prevMetrics := metrics.Enabled()
	metrics.Enable()
	defer func() {
		if !prevMetrics {
			metrics.Disable()
		}
	}()
	resumesBefore := counterValue(t, "group_resumes_total")
	joinsBefore := counterValue(t, "group_joins_total")

	type auditLog struct {
		mu     sync.Mutex
		events []group.Event
	}
	countKinds := func(a *auditLog, kinds ...group.EventKind) uint64 {
		a.mu.Lock()
		defer a.mu.Unlock()
		var n uint64
		for _, e := range a.events {
			for _, k := range kinds {
				if e.Kind == k {
					n++
				}
			}
		}
		return n
	}
	var primaryAudit, promotedAudit auditLog

	kr, err := crypto.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	// Ack timeouts are set far past the test horizon on both leaders: a
	// crashed primary must not keep evicting blackholed members in the
	// background and skew the cross-promotion ledger. The retransmit pace
	// must then be pinned explicitly — its default of AckTimeout/4 would
	// leave chaos-dropped AdminMsgs unrepaired for 15 seconds.
	liveness := group.Liveness{
		HeartbeatInterval:  50 * time.Millisecond,
		AckTimeout:         time.Minute,
		RetransmitInterval: 100 * time.Millisecond,
	}
	primary, err := group.NewLeader(group.Config{
		Name: leaderName, Users: keys, Rekey: group.DefaultRekeyPolicy(),
		LKH: true, LKHArity: 2,
		ReplKey: kr, ReplPing: 20 * time.Millisecond,
		Liveness: liveness,
		OnEvent: func(e group.Event) {
			primaryAudit.mu.Lock()
			primaryAudit.events = append(primaryAudit.events, e)
			primaryAudit.mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()

	inner := transport.NewMemNetwork()
	defer inner.Close()
	primL, err := inner.Listen("primary")
	if err != nil {
		t.Fatal(err)
	}
	go primary.Serve(primL)

	// Member links to the primary run through the seeded fault plan; the
	// replication channel runs through its own fault-free wrapper. Both are
	// severable, so the kill really blackholes everything at once, but the
	// chaos stays on the member side: the fault window is per connection, so
	// a channel that redials on every chain break would face chaos forever
	// and never reach the steady state this test kills.
	fnet := faultnet.NewNetwork(inner.Dial, faultnet.Plan{
		Seed:     *chaosSeedFlag,
		Outbound: faultnet.DirFaults{Drop: 0.05, Dup: 0.03, Reorder: 0.10},
		Inbound:  faultnet.DirFaults{Drop: 0.05, Reorder: 0.10},
		Heal:     heal,
	})
	replnet := faultnet.NewNetwork(inner.Dial, faultnet.Plan{})
	sb, err := replica.NewStandby(replica.StandbyConfig{
		Standby: "standby", Primary: leaderName, Key: kr,
		Dial:    func() (transport.Conn, error) { return replnet.Dial("primary") },
		Silence: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Stop()

	// Epoch monotonicity across the crash: the sampled source switches from
	// the primary to the promoted leader at the moment of promotion. Each
	// regression is kept with its source and time, for the failure message.
	type epochSource struct {
		name  string
		epoch func() uint64
	}
	type epochRegression struct {
		source   string
		from, to uint64
		at       time.Time
	}
	var epochOf atomic.Pointer[epochSource]
	epochOf.Store(&epochSource{"primary", primary.Epoch})
	var (
		regressionsMu sync.Mutex
		regressions   []epochRegression
	)
	samplerDone := make(chan struct{})
	go func() {
		var last uint64
		for {
			src := epochOf.Load()
			if e := src.epoch(); e < last {
				regressionsMu.Lock()
				regressions = append(regressions, epochRegression{src.name, last, e, time.Now()})
				regressionsMu.Unlock()
			} else {
				last = e
			}
			select {
			case <-samplerDone:
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}()

	var lastDial atomic.Int64 // when the newest member link to the primary was dialed
	newSession := func(u string) *member.Session {
		s, err := member.NewSession(member.SessionConfig{
			User: u,
			Endpoints: []member.Endpoint{
				{Leader: leaderName, LongTerm: keys[u], Dial: func() (transport.Conn, error) {
					lastDial.Store(time.Now().UnixNano())
					return fnet.Dial("primary")
				}},
				{Leader: leaderName, LongTerm: keys[u], Dial: func() (transport.Conn, error) { return inner.Dial("standby") }},
			},
			Backoff:      20 * time.Millisecond,
			ReadyTimeout: 5 * time.Second,
			// The silence watchdog must outlive the per-connection chaos
			// window: every internal rejoin dials a fresh conn with a fresh
			// chaos window, so a tighter budget makes the churn self-
			// sustaining (each replacement conn dies like its predecessor).
			SilenceTimeout: 2 * time.Second,
		})
		if err != nil {
			return nil
		}
		return s
	}

	// Wave 1: a concurrent join storm against the primary through the
	// chaotic links.
	sessions := make([]*member.Session, 2*wave)
	var wg sync.WaitGroup
	for i := 0; i < wave; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			u := names[i]
			for attempt := 0; ; attempt++ {
				if s := newSession(u); s != nil {
					sessions[i] = s
					return
				}
				if attempt >= 40 {
					t.Errorf("wave-1 join %s never succeeded", u)
					return
				}
				time.Sleep(50 * time.Millisecond)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for _, s := range sessions[:wave] {
		defer s.Close()
	}
	// The fault window is per connection. Once the newest link has healed
	// and a retransmit interval has passed, an AdminMsg or ack the plan
	// dropped has been repaired, so no exchange is half done at the kill: a
	// member whose ack the kill cut would hold a nonce the replica never
	// saw, and its resume would rightly be refused.
	waitUntil(t, "wave 1 up on the primary over healed links", 30*time.Second, func() bool {
		if time.Since(time.Unix(0, lastDial.Load())) < heal+2*liveness.RetransmitInterval {
			return false
		}
		e := primary.Epoch()
		for _, s := range sessions[:wave] {
			if !s.Up() || s.Epoch() != e {
				return false
			}
		}
		return len(primary.Members()) == wave
	})
	// Quiescence before the kill: the standby holds the full wave at the
	// primary's epoch, and a few ping intervals flush in-flight SessionSync
	// deltas so every replicated nonce is current.
	waitUntil(t, "standby replicated wave 1", 30*time.Second, func() bool {
		st := sb.State()
		return sb.Synced() && len(st.Members) == wave && st.Epoch == primary.Epoch()
	})
	time.Sleep(100 * time.Millisecond)

	epochAtKill := primary.Epoch()

	// Kill: the listener closes (new dials fail) and every existing link
	// blackholes — no FIN reaches anyone, only silence. Wave 2 starts its
	// join storm IMMEDIATELY after, against a dead primary: those members
	// have no session to resume and must ride the fallback path to the
	// promoted standby.
	primL.Close()
	fnet.SeverAll()
	replnet.SeverAll()
	killed := time.Now()

	for i := wave; i < 2*wave; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			u := names[i]
			for attempt := 0; ; attempt++ {
				if s := newSession(u); s != nil {
					sessions[i] = s
					return
				}
				if attempt >= 200 {
					t.Errorf("wave-2 join %s never succeeded", u)
					return
				}
				time.Sleep(50 * time.Millisecond)
			}
		}(i)
	}

	select {
	case <-sb.Dead():
	case <-time.After(10 * time.Second):
		t.Fatal("standby never declared the primary dead")
	}
	detection := time.Since(killed)
	st := sb.State()
	sb.Stop()
	if len(st.Members) != wave {
		t.Fatalf("replica at promotion holds %d members, want %d", len(st.Members), wave)
	}
	// The key tree came along: at least a leaf per replicated member.
	if len(st.Tree) < wave {
		t.Fatalf("replica carried %d key-tree nodes, want >= %d", len(st.Tree), wave)
	}

	promoted, err := group.Promote(group.Config{
		Users: keys, Rekey: group.DefaultRekeyPolicy(),
		Liveness: liveness,
		OnEvent: func(e group.Event) {
			promotedAudit.mu.Lock()
			promotedAudit.events = append(promotedAudit.events, e)
			promotedAudit.mu.Unlock()
		},
	}, st)
	if err != nil {
		t.Fatal(err)
	}
	defer promoted.Close()
	epochOf.Store(&epochSource{"promoted", promoted.Epoch})
	promotedAt := time.Now()
	sbL, err := inner.Listen("standby")
	if err != nil {
		t.Fatal(err)
	}
	defer sbL.Close()
	go promoted.Serve(sbL)

	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for _, s := range sessions[wave:] {
		defer s.Close()
	}

	// The reunited group: all 2*wave members up on the promoted leader at
	// one epoch.
	waitUntil(t, "both waves converge on the promoted leader", 30*time.Second, func() bool {
		e := promoted.Epoch()
		for _, s := range sessions {
			if !s.Up() || s.Epoch() != e {
				return false
			}
		}
		return len(promoted.Members()) == 2*wave
	})
	failover := time.Since(killed)

	// Exact split: wave 1 resumed, wave 2 full-joined at the promoted
	// leader. The resume counter is leader-side acceptances; the join delta
	// counts every password handshake since the kill (the primary is dead,
	// so they all landed on the promoted leader).
	logRejected := func() {
		promotedAudit.mu.Lock()
		defer promotedAudit.mu.Unlock()
		for _, e := range promotedAudit.events {
			if e.Kind == group.EventRejected {
				t.Logf("promoted leader rejected %s at epoch %d: %s", e.User, e.Epoch, e.Detail)
			}
		}
	}
	resumes := counterValue(t, "group_resumes_total") - resumesBefore
	if resumes != wave {
		t.Errorf("resumes = %d, want %d (wave 1 exactly)", resumes, wave)
		logRejected()
	}
	// Audit events are emitted moments after the acceptance that makes a
	// member visible as Up, so give the last one a beat to land before
	// holding the log to exact counts: wave 1 resumed, wave 2 joined.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resumed, joined := countKinds(&promotedAudit, group.EventResumed), countKinds(&promotedAudit, group.EventJoined)
		if resumed == wave && joined == wave {
			break
		}
		if time.Now().After(deadline) {
			if resumes == wave {
				logRejected()
			}
			t.Fatalf("promoted audit never settled at exact wave counts: %d Resumed, %d Joined, want %d each", resumed, joined, wave)
		}
	}

	// No resumed member ever held a pre-promotion key: every ResumeAck
	// carried a key minted at or after the forced promotion rotation.
	promotedAudit.mu.Lock()
	for _, e := range promotedAudit.events {
		if e.Kind == group.EventResumed && e.Epoch <= epochAtKill {
			t.Errorf("member %s resumed onto pre-promotion epoch %d (kill point %d)",
				e.User, e.Epoch, epochAtKill)
		}
	}
	promotedAudit.mu.Unlock()

	// The rekey ledger balances across the promotion. Triggers: every join,
	// leave, and eviction on either leader; each is one rotation on its
	// leader. Two corrections cancel exactly: the promotion performs one
	// forced rotation with no triggering membership event (+1), and the kill
	// drains the primary's registry exactly once, whose final departure
	// empties the group and is deliberately not a rekey trigger (-1). The
	// identity holding (and staying true past a straggler) is the
	// quiescence signal.
	ledger := func() (triggers, rekeys uint64, ok bool) {
		trig := group.EventJoined
		triggers = countKinds(&primaryAudit, trig, group.EventLeft, group.EventEvicted) +
			countKinds(&promotedAudit, trig, group.EventLeft, group.EventEvicted)
		rekeys = countKinds(&primaryAudit, group.EventRekeyed) + countKinds(&promotedAudit, group.EventRekeyed)
		return triggers, rekeys, triggers == rekeys
	}
	ledgerDeadline := time.Now().Add(30 * time.Second)
	for {
		if _, _, ok := ledger(); ok {
			break
		}
		if time.Now().After(ledgerDeadline) {
			kinds := func(a *auditLog) map[group.EventKind]int {
				a.mu.Lock()
				defer a.mu.Unlock()
				m := make(map[group.EventKind]int)
				for _, e := range a.events {
					m[e.Kind]++
				}
				return m
			}
			triggers, rekeys, _ := ledger()
			t.Fatalf("cross-promotion rekey ledger never balanced: %d triggers != %d rekeys\nprimary audit: %v\npromoted audit: %v",
				triggers, rekeys, kinds(&primaryAudit), kinds(&promotedAudit))
		}
		time.Sleep(20 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
	triggers, rekeys, ok := ledger()
	if !ok {
		t.Fatalf("ledger broke after quiescence: %d triggers != %d rekeys", triggers, rekeys)
	}
	// The promoted epoch is exactly the replicated epoch advanced by the
	// promoted leader's own rotations — the epoch line never forked.
	if e, own := promoted.Epoch(), countKinds(&promotedAudit, group.EventRekeyed); e != st.Epoch+own {
		t.Fatalf("promoted epoch %d != replicated %d + %d own rekeys", e, st.Epoch, own)
	}
	close(samplerDone)
	regressionsMu.Lock()
	regs := regressions
	regressionsMu.Unlock()
	if len(regs) != 0 {
		msg := fmt.Sprintf("epoch moved backwards %d times across the failover (primary's last epoch %d, replicated epoch %d):",
			len(regs), primary.Epoch(), st.Epoch)
		for _, r := range regs {
			msg += fmt.Sprintf("\n  %s sampled %d after %d, %v from promotion", r.source, r.to, r.from, r.at.Sub(promotedAt))
		}
		t.Fatal(msg)
	}

	// Live proof: one multicast reaches every other member of the reunited
	// group under the post-promotion key.
	seen := make([]*payloadSet, len(sessions))
	for i, s := range sessions {
		ps := newPayloadSet()
		seen[i] = ps
		go func(s *member.Session, ps *payloadSet) {
			for {
				ev, err := s.Next()
				if err != nil {
					return
				}
				if ev.Kind == member.EventData {
					ps.add(string(ev.Data))
				}
			}
		}(s, ps)
	}
	const probe = "post-failover-probe"
	waitUntil(t, "post-failover multicast reaches both waves", 30*time.Second, func() bool {
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

	// The chaos was real: the plan dropped frames before healing, and the
	// kill switch blackholed more.
	if s := fnet.Stats(); s.Dropped == 0 {
		t.Fatalf("fault plan injected no faults: %+v", s)
	}
	t.Logf("failover under churn: detection %v, reunion %v, resumes=%d joins=%d triggers=%d rekeys=%d",
		detection, failover, resumes,
		counterValue(t, "group_joins_total")-joinsBefore,
		triggers, rekeys)
}
