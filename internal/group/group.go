// Package group implements the leader side of an Enclaves application
// (Figure 1): it authenticates joining members with the improved protocol
// of Section 3.2 (via core.LeaderSession), maintains the authoritative
// membership, generates and rotates the group key K_g according to an
// application-dependent rekey policy (Section 2.1), distributes every
// group-management message over the verified ack-gated AdminMsg pipeline,
// and relays application multicast between members.
package group

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"enclaves/internal/core"
	"enclaves/internal/crypto"
	"enclaves/internal/lkh"
	"enclaves/internal/queue"
	"enclaves/internal/replica"
	"enclaves/internal/transport"
	"enclaves/internal/wire"
)

// RekeyPolicy selects when the leader generates a new group key
// ("Typically, new keys can be generated when new members join, when
// members leave, or on a periodic basis" — Section 2.2). Periodic rekeying
// is driven by the application calling Leader.Rekey from its own timer, so
// the library stays deterministic.
type RekeyPolicy struct {
	// OnJoin rotates the key every time a member joins, denying new
	// members access to earlier traffic (backward secrecy).
	OnJoin bool
	// OnLeave rotates the key every time a member leaves or is expelled,
	// denying past members access to future traffic (forward secrecy).
	// This is the policy the Section 2.3 rollback attack subverts in the
	// legacy protocol.
	OnLeave bool
}

// DefaultRekeyPolicy rotates on both joins and leaves.
func DefaultRekeyPolicy() RekeyPolicy {
	return RekeyPolicy{OnJoin: true, OnLeave: true}
}

// Config configures a Leader.
type Config struct {
	// Name is the leader's identity L.
	Name string
	// Users maps each authorized user to the long-term key P_user shared
	// with the leader (derive with crypto.DeriveKey).
	Users map[string]crypto.Key
	// Rekey selects the group-key rotation policy.
	Rekey RekeyPolicy
	// RekeyCoalesce debounces policy-triggered rotations: a burst of
	// join/leave rekeys landing inside the window folds into one epoch bump
	// and one NewGroupKey broadcast, turning a k-member churn storm's
	// k × O(n) rekey broadcasts into a single one (the dominant cost of
	// dynamic group key management; see EXPERIMENTS.md). Zero (the default)
	// keeps every rotation immediate. Expel and explicit Rekey calls are
	// always immediate regardless of the window — an expulsion's forward
	// secrecy must not wait. See README "Scalability" for the security
	// argument bounding what the window trades away.
	RekeyCoalesce time.Duration
	// LKH switches group-key distribution from the flat per-member
	// NewGroupKey broadcast (n re-seals per rotation) to a logical key
	// hierarchy (internal/lkh): members hold their leaf-to-root path keys,
	// the root key is the group key, and a rotation re-seals only the
	// ~log_k(n) keys on the affected path, one seal per child subtree,
	// delivered as fire-and-forget KeyUpdate frames with PathKeys resync
	// over the reliable pipeline. Off by default — the flat path remains
	// the verified baseline.
	LKH bool
	// LKHArity is the key tree's branching factor k (lkh.DefaultArity when
	// < 2). Only meaningful with LKH set.
	LKHArity int
	// Logf, if non-nil, receives diagnostic log lines.
	Logf func(format string, args ...any)
	// OnEvent, if non-nil, receives audit events (joins, leaves,
	// expulsions, rekeys, and rejected frames) from a dedicated dispatcher
	// goroutine, in order. Rejected events surface tolerated intrusion
	// attempts to monitoring.
	OnEvent func(Event)
	// Liveness configures heartbeat probing and ack-deadline eviction of
	// unresponsive members. The zero value disables the failure detector.
	Liveness Liveness
	// OutboxLimit bounds each member's outbound queue; a member whose
	// outbox overflows (slow or stalled consumer) is evicted rather than
	// allowed to grow leader memory without bound. Zero means the default
	// of 1024 frames; negative means unbounded (the pre-liveness behavior).
	OutboxLimit int
	// ReplKey, when valid, enables leader replication: a standby holding
	// the same pre-shared key may subscribe on the ordinary listener (its
	// first frame is a sealed ReplState hello) and mirrors membership,
	// epoch, group key and audit state in real time. See internal/replica
	// and Promote.
	ReplKey crypto.Key
	// ReplPing paces liveness pings on the replication stream so the
	// standby's silence detector sees traffic even when the group is
	// quiescent. Zero disables pings (the standby then relies on organic
	// delta traffic). Only meaningful with a valid ReplKey.
	ReplPing time.Duration
	// Tenant, when non-empty, labels this leader's activity in the
	// per-tenant metric families (group_tenant_*), so a multi-tenant
	// daemon's /metrics distinguishes groups. Empty (the single-tenant
	// default) records nothing per-tenant.
	Tenant string
}

// defaultOutboxLimit bounds per-member outbound queues unless overridden.
const defaultOutboxLimit = 1024

// errLeaderClosed is returned by operations on a closed leader.
var errLeaderClosed = errors.New("group: leader closed")

// Leader is a running Enclaves group leader.
type Leader struct {
	name      string
	rekey     RekeyPolicy
	coalesce  time.Duration
	logf      func(string, ...any)
	log       *changeLog // every decision, once; see changelog.go
	liveness  Liveness
	outboxCap int
	// tm labels this leader's activity in the per-tenant metric families;
	// nil (no tenant label) makes every recording a no-op.
	tm *tenantMetrics

	// reg is the member registry. Mutations happen under mu; reads — relay
	// snapshots, liveness sweeps, Members() — take no leader lock. See
	// registry.go for the full rule.
	reg registry
	// fan parallelizes broadcast fan-out; nil means sequential.
	fan *fanout

	// repl streams the log's replication projection to the subscribed
	// standby; nil when replication is disabled. Publishing only enqueues —
	// sealing and sending happen on the sender's own writer goroutine.
	repl *replica.Sender

	// kuQ feeds the key-update publisher goroutine (see lkh.go); nil when
	// LKH is disabled. Like repl, producers only enqueue.
	kuQ *queue.Queue[kuJob]

	mu       sync.RWMutex // read side: sealFrame's wait for a change in progress
	users    map[string]crypto.Key
	groupKey crypto.Key
	epoch    uint64
	// tree is the logical key hierarchy; nil when Config.LKH is off. All
	// access is under mu; its root key always equals groupKey.
	tree   *lkh.Tree
	closed bool
	conns  map[transport.Conn]bool // every live connection, accepted or not
	// resumable holds replicated sessions awaiting resumption after a
	// promotion (Promote): user -> engine state. An entry is claimed by the
	// first successful Resume; a member that never resumes simply rejoins
	// with the full password handshake.
	resumable map[string]core.SessionState
	// rekeyPending/rekeyTimer implement the coalescing window: the first
	// debounced trigger arms the timer, later triggers inside the window
	// fold into it, and any immediate rotation absorbs the pending one.
	// rekeyPending counts the triggers waiting on the window.
	rekeyPending int
	rekeyTimer   *time.Timer
	// bcastBuf is the reusable fan-out snapshot for admin broadcasts; it is
	// only touched under mu, so one buffer serves every broadcast.
	bcastBuf []*memberConn

	stop chan struct{} // closed by Close; ends the liveness loop
	wg   sync.WaitGroup
}

// memberConn couples a member's connection with its protocol engine and a
// writer goroutine, so broadcasting never blocks on a slow member. The
// outbox is bounded: a member too slow to drain it is evicted (see
// Config.OutboxLimit) instead of growing leader memory without bound.
type memberConn struct {
	user string
	conn transport.Conn
	out  *queue.Queue[outFrame]

	// mu guards the protocol engine and the retransmit bookkeeping below,
	// so AEAD sealing and ack handling contend per member instead of on
	// Leader.mu. Lock order: Leader.mu may be held when taking mu; never
	// acquire it while holding mu.
	mu     sync.Mutex
	engine *core.LeaderSession
	// unacked is the FIFO of emitted-but-unacknowledged AdminMsgs, keyed by
	// engine sequence so acknowledgments retire exactly the frames they
	// cover. The engine emits at most one AdminMsg at a time, but the FIFO
	// keeps retransmit tracking correct by construction rather than by that
	// invariant. lastAdmin is when admin traffic last entered the pipeline,
	// pacing heartbeats.
	unacked   []unackedAdmin
	lastAdmin time.Time
	// syncedEpoch is the last epoch at which a KeySyncReq was answered,
	// rate-limiting path-key resyncs to one per member per epoch.
	syncedEpoch uint64
}

// outFrame is one element of a member's outbox: a shared pre-encoded
// fan-out frame (enc, used by the AppData relay so the envelope is encoded
// once for all N recipients), a pre-sealed frame forwarded verbatim
// (retransmissions, engine-drained replies), or an admin body
// (sealed == false) that the member's writer goroutine seals into an
// AdminMsg outside the global lock — broadcasts under Leader.mu only
// enqueue, which is why the lock-hold time per broadcast is O(members)
// queue pushes rather than O(members) AEAD seals.
type outFrame struct {
	env    wire.Envelope
	enc    *transport.Encoded
	body   wire.AdminBody
	sealed bool
}

// pushOut enqueues one outbox frame, stepping the aggregate depth gauge
// only when the enqueue succeeds; the writer goroutine (and the teardown
// drain) retire frames with drained, so the gauge reports the total number
// of queued frames across all members at any instant.
func (s *memberConn) pushOut(f outFrame) error {
	err := s.out.Push(f)
	if err == nil {
		mOutboxDepth.Add(1)
	}
	return err
}

// drained retires n popped frames from the aggregate depth gauge.
func (s *memberConn) drained(n int) {
	if n > 0 {
		mOutboxDepth.Add(-int64(n))
	}
}

// unackedAdmin is one emitted AdminMsg awaiting acknowledgment: sentAt
// times the ack deadline and the ack-latency histogram, resentAt paces
// retransmission of the FIFO head.
type unackedAdmin struct {
	env      wire.Envelope
	seq      uint64
	sentAt   time.Time
	resentAt time.Time
}

// trackLocked appends one just-emitted AdminMsg to the unacked FIFO; the
// caller holds s.mu and the engine's SentSeq still identifies env.
func (s *memberConn) trackLocked(env wire.Envelope, now time.Time) {
	s.unacked = append(s.unacked, unackedAdmin{
		env: env, seq: s.engine.SentSeq(), sentAt: now, resentAt: now,
	})
	s.lastAdmin = now
	mAdminSent.Inc()
}

// ackLocked retires every unacked AdminMsg up to and including seq,
// observing the ack round trip. Seq-matched popping — rather than clearing
// tracking wholesale on any accepted frame — means an acknowledgment can
// never erase the retransmit state of a frame it does not cover.
func (s *memberConn) ackLocked(seq uint64, now time.Time) {
	for len(s.unacked) > 0 && s.unacked[0].seq <= seq {
		mAckLatency.Observe(now.Sub(s.unacked[0].sentAt))
		mAdminAcked.Inc()
		s.unacked[0] = unackedAdmin{}
		s.unacked = s.unacked[1:]
	}
}

// NewLeader creates a leader with the given configuration and generates the
// initial group key (epoch 1) — "the group leader generates a first group
// key when the first member is accepted"; generating it eagerly is
// equivalent since no traffic precedes the first member.
func NewLeader(cfg Config) (*Leader, error) {
	if cfg.Name == "" {
		return nil, errors.New("group: leader name must be non-empty")
	}
	users := make(map[string]crypto.Key, len(cfg.Users))
	for u, k := range cfg.Users {
		if !k.Valid() {
			return nil, fmt.Errorf("group: invalid long-term key for user %q", u)
		}
		users[u] = k
	}
	kg, err := crypto.NewKey()
	if err != nil {
		return nil, err
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	outboxCap := cfg.OutboxLimit
	if outboxCap == 0 {
		outboxCap = defaultOutboxLimit
	} else if outboxCap < 0 {
		outboxCap = 0 // unbounded
	}
	coalesce := cfg.RekeyCoalesce
	if coalesce < 0 {
		coalesce = 0
	}
	var fan *fanout
	if workers := defaultFanoutWorkers(); workers > 1 {
		fan = newFanout(workers)
	}
	g := &Leader{
		name:      cfg.Name,
		rekey:     cfg.Rekey,
		coalesce:  coalesce,
		logf:      logf,
		liveness:  cfg.Liveness,
		outboxCap: outboxCap,
		tm:        newTenantMetrics(cfg.Tenant),
		fan:       fan,
		users:     users,
		conns:     make(map[transport.Conn]bool),
		groupKey:  kg,
		epoch:     1,
		stop:      make(chan struct{}),
	}
	if cfg.LKH {
		tree, err := lkh.New(cfg.LKHArity)
		if err != nil {
			return nil, err
		}
		g.tree = tree
		g.groupKey = tree.RootKey() // the root key IS the group key
		g.kuQ = queue.NewBounded[kuJob](lkhQueueLimit)
		g.wg.Add(1)
		go g.keyUpdatePublisher()
	}
	if cfg.ReplKey.Valid() {
		repl, err := replica.NewSender(cfg.Name, cfg.ReplKey, logf)
		if err != nil {
			return nil, err
		}
		g.repl = repl
	}
	g.log = newChangeLog(cfg.OnEvent, g.repl)
	if g.repl != nil && cfg.ReplPing > 0 {
		g.wg.Add(1)
		go g.replPingLoop(cfg.ReplPing)
	}
	if g.liveness.enabled() {
		g.wg.Add(1)
		go g.livenessLoop()
	}
	return g, nil
}

// replPingLoop keeps the replication stream demonstrably alive while the
// group is quiescent, so the standby's silence detector never confuses an
// idle group with a dead primary.
func (g *Leader) replPingLoop(every time.Duration) {
	defer g.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-t.C:
			g.log.ping()
		}
	}
}

// Name returns the leader's identity.
func (g *Leader) Name() string { return g.name }

// Members returns the current membership in sorted order. It reads only
// the registry, never Leader.mu, so monitoring cannot stall the control
// plane.
func (g *Leader) Members() []string {
	return g.reg.names()
}

// Epoch returns the current group-key epoch.
func (g *Leader) Epoch() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.epoch
}

// GroupKey returns the current group key. Exposed for tests and for
// leader-originated application traffic.
func (g *Leader) GroupKey() (crypto.Key, uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.groupKey, g.epoch
}

// Serve accepts and serves member connections until the listener fails or
// Close is called. It blocks; run it in a goroutine.
func (g *Leader) Serve(l transport.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			g.mu.Lock()
			closed := g.closed
			g.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("group: accept: %w", err)
		}
		// ServeConn registers the handler under g.mu, so a connection
		// accepted while Close runs cannot add work behind its wg.Wait.
		if g.ServeConn(conn) != nil {
			return nil
		}
	}
}

// ServeConn serves one already-accepted connection — the entry point a
// multi-tenant router (Directory) uses after resolving the connection's
// group, where Serve's own accept loop never runs. It returns immediately;
// the protocol runs on a leader-tracked goroutine. The goroutine is
// registered under g.mu with a closed check, so ServeConn can never race a
// concurrent Close into adding work after the final wg.Wait.
func (g *Leader) ServeConn(conn transport.Conn) error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		conn.Close()
		return errLeaderClosed
	}
	g.wg.Add(1)
	g.mu.Unlock()
	go func() {
		defer g.wg.Done()
		g.serveConn(conn)
	}()
	return nil
}

// Idle reports whether the leader currently has no live connections and no
// accepted members — the Directory's garbage-collection predicate.
func (g *Leader) Idle() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.conns) == 0 && g.reg.size() == 0
}

// Close disconnects every connection (accepted or mid-handshake) and stops
// serving. A pending coalesced rekey is cancelled: there is no one left to
// rotate for.
func (g *Leader) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	close(g.stop)
	if g.rekeyTimer != nil {
		g.rekeyTimer.Stop()
		g.rekeyTimer = nil
	}
	g.rekeyPending = 0
	conns := make([]transport.Conn, 0, len(g.conns))
	for c := range g.conns {
		conns = append(conns, c)
	}
	sessions := g.reg.appendAll(nil, "")
	g.mu.Unlock()
	for _, s := range sessions {
		s.out.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	if g.repl != nil {
		g.repl.Detach()
	}
	if g.kuQ != nil {
		g.kuQ.Close() // ends the key-update publisher
	}
	g.wg.Wait()
	// Every broadcast dispatcher (serveConn handlers, the liveness loop,
	// the flush timer's closed check) has stopped by now, so the fan-out
	// pool can drain without racing a late submit.
	g.fan.close()
	g.log.stop()
}

// Rekey generates and distributes a new group key immediately — it never
// waits on the coalescing window. Use it for periodic or event-driven
// policies beyond join/leave.
func (g *Leader) Rekey() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return errLeaderClosed
	}
	return g.rekeyLocked("manual", wire.NewGroupKey{}, "")
}

// rekeyLocked rotates the group key now; cause becomes the Rekeyed record's
// detail. delta names the membership change the rotation answers and skip
// the joiner it must not reach: the flat path adds epoch and key and
// broadcasts that one body. Under LKH the rotation covers the dirty paths
// (the root always included), keys travel as KeyUpdate frames, the caller
// has announced the change itself, and delta is empty.
func (g *Leader) rekeyLocked(cause string, delta wire.NewGroupKey, skip string) error {
	// An immediate rotation satisfies any pending debounced one: absorb it
	// so the window cannot fire a redundant second broadcast.
	if g.rekeyPending > 0 {
		g.rekeyPending = 0
		if g.rekeyTimer != nil {
			g.rekeyTimer.Stop()
			g.rekeyTimer = nil
		}
		mRekeysCoalesced.Inc()
	}
	var (
		kg  crypto.Key
		ups []lkh.Update
		err error
	)
	if g.tree != nil {
		ups, err = g.tree.RotateDirty()
		kg = g.tree.RootKey()
	} else {
		kg, err = crypto.NewKey()
	}
	if err != nil {
		return err
	}
	g.groupKey = kg
	g.epoch++
	g.logf("group: rekey to epoch %d (%s)", g.epoch, cause)
	mRekeys.Inc()
	g.tm.rekey(g.epoch)
	if g.tree != nil {
		g.replTreeLocked() // the rotated records replicate ahead of their epoch
	}
	g.log.record(change{kind: changeRekeyed, epoch: g.epoch, detail: cause, repl: wire.ReplDeltaPayload{GroupKey: kg}})
	if g.tree != nil {
		g.enqueueKeyUpdatesLocked(ups)
		return nil
	}
	delta.Epoch, delta.Key = g.epoch, kg
	g.broadcastAdminLocked(delta, skip)
	return nil
}

// Expel removes a member against its will (the "variation of this protocol
// [that] can be used to expel some members", Section 2.2): its connection
// is dropped, the group is informed, and the key is rotated per policy —
// immediately, never coalesced, so the expelled member's last key dies with
// its membership.
func (g *Leader) Expel(user string) error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return errLeaderClosed
	}
	s := g.reg.take(user)
	if s == nil {
		g.mu.Unlock()
		return fmt.Errorf("group: %q is not a member", user)
	}
	mExpels.Inc()
	g.logf("group: expelled %s", user)
	g.departedLocked(user, changeExpelled, "")
	g.mu.Unlock()

	s.out.Close()
	s.conn.Close()
	return nil
}

// runMember drives an established member connection: a writer goroutine
// drains the outbox while readLoop processes inbound frames; on either
// ending, the member is torn down.
func (g *Leader) runMember(s *memberConn) {
	conn := s.conn
	// Writer goroutine: drains the outbox in batches so broadcasts never
	// block, seals admin bodies here — outside Leader.mu — so a slow AEAD
	// or a slow member never holds up the whole group, and transmits each
	// drained backlog behind a single flush (one syscall per drain on
	// byte-stream transports, not one per frame).
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		var (
			frames []outFrame
			batch  []transport.Outgoing
		)
		for {
			var err error
			frames, err = s.out.PopAll(frames)
			if err != nil {
				return
			}
			s.drained(len(frames))
			batch = batch[:0]
			for _, f := range frames {
				if f.enc != nil {
					batch = append(batch, transport.Outgoing{Enc: f.enc})
					continue
				}
				env, ok := g.sealFrame(s, f)
				if !ok {
					continue
				}
				batch = append(batch, transport.Outgoing{Env: env})
			}
			if len(batch) == 0 {
				continue
			}
			if err := s.conn.SendBatch(batch); err != nil {
				return
			}
		}
	}()

	g.readLoop(s)

	// Connection is gone (clean close or failure): if the member was still
	// accepted, treat it as a leave.
	g.mu.Lock()
	if g.reg.remove(s) {
		mLeaves.Inc()
		g.departedLocked(s.user, changeLeft, "connection lost")
	}
	g.mu.Unlock()
	s.out.Close()
	conn.Close()
	<-writerDone
	// The writer exits on a send failure with frames possibly still queued;
	// the outbox is closed by now, so retire the leftovers to keep the
	// aggregate depth gauge exact.
	for {
		if _, ok := s.out.TryPop(); !ok {
			break
		}
		s.drained(1)
	}
}

// readLoop processes frames from one member until the connection drops or
// the session closes.
func (g *Leader) readLoop(s *memberConn) {
	for {
		env, err := s.conn.Recv()
		if err != nil {
			return
		}
		switch env.Type {
		case wire.TypeAppData:
			g.relay(s, env)
		case wire.TypeKeySyncReq:
			g.handleKeySync(s)
		default:
			done := g.handleProtocol(s, env)
			if done {
				return
			}
		}
	}
}

// handleProtocol feeds a protocol frame to the member's engine under the
// member's own lock, then applies group-level consequences (acceptance,
// departure, eviction) under the group lock. It returns true when the
// session has closed.
func (g *Leader) handleProtocol(s *memberConn, env wire.Envelope) bool {
	now := time.Now()
	s.mu.Lock()
	ev, err := s.engine.Handle(env)
	if err != nil {
		s.mu.Unlock()
		// Rejected frame (replay, forgery, wrong state): log and drop; the
		// session stays healthy. This is the intrusion tolerance in action.
		g.logf("group: rejected %s from %s: %v", env.Type, s.user, err)
		mRejected.Inc()
		g.log.record(change{kind: changeRejected, user: s.user, epoch: g.Epoch(), detail: err.Error()})
		return false
	}
	var es core.SessionState
	synced := false
	if ev.Acked {
		s.ackLocked(ev.AckedSeq, now)
		if g.repl != nil {
			es, synced = s.engine.ExportState()
		}
	}
	if ev.Closed {
		s.unacked = nil
	}
	overflow := false
	if ev.Reply != nil {
		// The engine drained the next queued admin body into a pre-sealed
		// AdminMsg (or emitted the AuthKeyDist during the handshake).
		// Retransmit tracking records it only once the enqueue succeeds, so
		// a full or closed outbox leaves no phantom liveness state behind.
		switch err := s.pushOut(outFrame{env: *ev.Reply, sealed: true}); {
		case err == nil:
			if ev.Reply.Type == wire.TypeAdminMsg {
				s.trackLocked(*ev.Reply, now)
			}
		case errors.Is(err, queue.ErrFull):
			overflow = true
		default:
			g.logf("group: outbox of %s closed", s.user)
		}
	}
	s.mu.Unlock()
	if synced {
		// Mirror the advanced chained nonce: the session is only resumable
		// from a nonce both sides agree on. Recorded off s.mu, which orders
		// after the log's mutex; this read loop alone records the member's acks.
		g.log.record(change{kind: changeSessionSync, user: s.user, repl: wire.ReplDeltaPayload{Nonce: es.Nonce, Seq: es.Seq}})
	}

	// The steady-state frame is an acknowledgment with no group-level
	// consequence; it finishes right here without touching Leader.mu, so
	// acks from thousands of members retire in parallel instead of
	// serializing on the control-plane lock.
	if !overflow && !ev.Accepted && !ev.Closed {
		return false
	}

	g.mu.Lock()
	defer g.mu.Unlock()
	if overflow {
		mOverflow.Inc()
		g.evictLocked(s, "outbox overflow (slow consumer)")
		return false
	}
	if ev.Accepted {
		g.admitLocked(s, false)
	}
	if ev.Closed {
		// Only a session still in the registry departs: a stale one (already
		// evicted, or displaced by a rejoin) must not announce a departure or
		// trigger a rotation for a user who may be a live member again.
		if g.reg.remove(s) {
			mLeaves.Inc()
			g.logf("group: %s left", s.user)
			g.departedLocked(s.user, changeLeft, "")
		}
		return true
	}
	return false
}

// sealFrame resolves one outbox element into a wire frame. Pre-sealed
// frames pass through; admin bodies go through the member's engine, which
// seals an AdminMsg when the ack-gated pipeline is free and queues the
// body internally otherwise (nothing to transmit yet).
func (g *Leader) sealFrame(s *memberConn, f outFrame) (wire.Envelope, bool) {
	if f.sealed {
		return f.env, true
	}
	// A membership change holds mu for its whole fan-out and this read side
	// waits one out, so nobody holds a rotation's key, and multicasts under
	// it, while a peer's copy is not yet queued: the relayed frame would
	// overtake the key there and be dropped.
	g.mu.RLock()
	closed := g.closed
	g.mu.RUnlock()
	if closed {
		return wire.Envelope{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	env, err := s.engine.Send(f.body)
	if err != nil {
		g.logf("group: admin to %s: %v", s.user, err)
		return wire.Envelope{}, false
	}
	if env == nil {
		return wire.Envelope{}, false // queued behind the outstanding AdminMsg
	}
	mSealLatency.Observe(time.Since(start))
	s.trackLocked(*env, start)
	return *env, true
}

// departedLocked records a departure (left, expelled or evicted, with its
// detail), announces it and rotates the key per policy. The caller must have
// removed the member from the registry already. An expulsion rotates now;
// leaves and evictions may fold into the coalescing window — safe for
// forward secrecy because the departed member is already out of the
// registry, so the eventual NewGroupKey broadcast cannot reach it.
func (g *Leader) departedLocked(user string, kind changeKind, detail string) {
	mMembers.Add(-1)
	g.tm.left()
	// Prune the departed member's leaf first: the pruning and the surviving
	// path's dirtiness replicate ahead of any rotation, and the eventual
	// RotateDirty retires every key the member held.
	g.leaveTreeLocked(user)
	g.log.record(change{kind: kind, user: user, epoch: g.epoch, detail: detail})
	immediate := kind == changeExpelled
	rotate := g.rekey.OnLeave && g.reg.size() > 0
	cause := "leave " + user
	if immediate {
		cause = "expel " + user
	}
	g.announceLocked(wire.MemberLeft{Name: user}, wire.NewGroupKey{Left: []string{user}}, cause, "",
		rotate, rotate && (immediate || g.coalesce <= 0))
}

// announceLocked tells every member but skip about one membership change and
// rotates per policy: rotate says the policy asks for a rotation, now that it
// may not wait for the coalescing window. A flat rotation that happens now
// carries the change itself (delta) — one AdminMsg per member, and after a
// leave the departed member's key is dead one ack round trip later, not two.
// notice travels on its own only where no key message follows at once: LKH,
// the coalescing window, the policy off, a resumption.
func (g *Leader) announceLocked(notice wire.AdminBody, delta wire.NewGroupKey, cause, skip string, rotate, now bool) {
	if !now || g.tree != nil {
		delta = wire.NewGroupKey{}
		g.broadcastAdminLocked(notice, skip)
	}
	switch {
	case now:
		if err := g.rekeyLocked(cause, delta, skip); err != nil {
			g.logf("group: rekey (%s): %v", cause, err)
		}
	case rotate:
		g.requestRekeyLocked()
	}
}

// broadcastAdminLocked queues an admin body for every member except skip.
// Only the enqueues happen under Leader.mu — each member's writer seals its
// own AdminMsg outside the lock — so the hold time measured here is the
// fan-out cost, not members × AEAD; at scale the fan-out itself is split
// across the worker pool.
func (g *Leader) broadcastAdminLocked(body wire.AdminBody, skip string) {
	start := time.Now()
	g.bcastBuf = g.reg.appendAll(g.bcastBuf[:0], skip)
	overflowed := g.fanoutPush(g.bcastBuf, outFrame{body: body})
	for _, s := range overflowed {
		g.evictLocked(s, "outbox overflow (slow consumer)")
	}
	clear(g.bcastBuf) // drop member references until the next broadcast
	mBroadcastHold.Observe(time.Since(start))
}

// sendAdminLocked queues an admin body on one member's outbox for the
// writer goroutine to seal; a full outbox evicts per the slow-consumer
// policy (bounded memory beats unbounded hope).
func (g *Leader) sendAdminLocked(s *memberConn, body wire.AdminBody) {
	if g.pushFrameTo(s, outFrame{body: body}) {
		g.evictLocked(s, "outbox overflow (slow consumer)")
	}
}

// pushFrameTo enqueues one frame on a member's outbox and reports overflow
// (true) so the caller can route the eviction through the group lock.
// Heartbeat pacing advances only when an admin-body enqueue succeeds, and a
// closed outbox (member tearing down) is not an error worth surfacing. This
// is the unit of work fan-out workers execute; it touches only the outbox
// and the member's own lock, never Leader.mu.
func (g *Leader) pushFrameTo(s *memberConn, f outFrame) bool {
	switch err := s.pushOut(f); {
	case err == nil:
		if f.enc == nil && !f.sealed {
			s.mu.Lock()
			s.lastAdmin = time.Now()
			s.mu.Unlock()
		}
		return false
	case errors.Is(err, queue.ErrFull):
		mOverflow.Inc()
		return true
	default:
		g.logf("group: outbox of %s closed", s.user)
		return false
	}
}

// targetsPool recycles relay fan-out snapshots; at thousands of members the
// per-relay snapshot would otherwise dominate the allocation profile.
var targetsPool = sync.Pool{New: func() any { return new([]*memberConn) }}

// relay forwards application data from one member to all others, unchanged.
// The leader does not need to decrypt: confidentiality is end-to-end under
// the group key (the leader holds K_g anyway, but relaying verbatim keeps
// the AEAD header binding intact for receivers). The fan-out runs entirely
// off Leader.mu — the membership check and snapshot read only the lock-free
// registry, and outboxes carry their own locks — so relays from different
// members proceed concurrently with each other and with the control plane.
func (g *Leader) relay(from *memberConn, env wire.Envelope) {
	if g.reg.get(from.user) != from {
		g.logf("group: app data from non-member %s dropped", from.user)
		return
	}
	tp := targetsPool.Get().(*[]*memberConn)
	targets := g.reg.appendAll((*tp)[:0], from.user)

	// Encode the relayed envelope once and hand every outbox the same shared
	// frame: on byte-stream transports the fan-out pays one encode for N
	// members instead of N, and in-memory pipes never trigger the encode at
	// all (Encoded realizes its bytes lazily).
	enc := transport.NewEncoded(env)
	overflowed := g.fanoutPush(targets, outFrame{enc: enc})
	clear(targets)
	*tp = targets
	targetsPool.Put(tp)

	if len(overflowed) > 0 {
		g.mu.Lock()
		if !g.closed {
			for _, s := range overflowed {
				g.evictLocked(s, "outbox overflow (slow consumer)")
			}
		}
		g.mu.Unlock()
	}
}
