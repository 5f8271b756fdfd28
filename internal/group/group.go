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
	"maps"
	"slices"
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
	// LKH switches group-key distribution from the flat per-member
	// NewGroupKey broadcast (n re-seals per rotation) to a logical key
	// hierarchy (internal/lkh): members hold their leaf-to-root path keys,
	// the root key is the group key, and a rotation re-seals only the
	// ~log_k(n) keys on the affected path, one seal per child subtree,
	// delivered as KeyBoxes admin bodies over the reliable pipeline. Off by
	// default — the flat path remains the verified baseline.
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

	// repl streams the log's replication projection to the subscribed
	// standby; nil when replication is disabled. Publishing only enqueues —
	// sealing and sending happen on the sender's own writer goroutine.
	repl *replica.Sender

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
	// bcastBuf is the reusable fan-out snapshot for admin broadcasts; it is
	// only touched under mu, so one buffer serves every broadcast.
	bcastBuf []*memberConn

	// running admits each frame handler and timer tick; Close shuts it.
	running gate
}

// memberConn couples a member's connection, its protocol engine and an
// outbox the connection's writer drains, so broadcasting never blocks on a
// slow member; a member too slow to drain the bounded outbox is evicted
// (Config.OutboxLimit) instead of growing leader memory without bound.
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
}

// outFrame is one element of a member's outbox: a shared pre-encoded
// fan-out frame (enc, used by the AppData relay so the envelope is encoded
// once for all N recipients), a pre-sealed frame forwarded verbatim
// (retransmissions, engine-drained replies), or an admin body that the
// connection's writer seals into an AdminMsg outside the global lock (an
// LKH KeyBoxes with the member's deepest box). Broadcasts under Leader.mu
// only enqueue: O(members) queue pushes per broadcast, not O(members) AEAD
// seals. Five words, since an outbox's array outlives its bursts.
type outFrame struct {
	env  *wire.Envelope
	enc  *transport.Encoded
	body wire.AdminBody
	box  *keyBox
}

// pushOut enqueues one outbox frame and wakes the connection's writer,
// stepping the aggregate depth gauge only when the enqueue succeeds; drain
// (and the teardown) retire frames with drained, so the gauge reports the
// total number of queued frames across all members at any instant.
func (s *memberConn) pushOut(f outFrame) error {
	err := s.out.Push(f)
	if err == nil {
		mOutboxDepth.Add(1)
		s.conn.Wake()
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
	if len(s.unacked) == 0 {
		s.unacked = nil // an idle session keeps no array
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
	g := &Leader{
		name:      cfg.Name,
		rekey:     cfg.Rekey,
		logf:      logf,
		liveness:  cfg.Liveness,
		outboxCap: outboxCap,
		tm:        newTenantMetrics(cfg.Tenant),
		users:     users,
		conns:     make(map[transport.Conn]bool),
		groupKey:  kg,
		epoch:     1,
	}
	if cfg.LKH {
		tree, err := lkh.New(cfg.LKHArity)
		if err != nil {
			return nil, err
		}
		g.tree = tree
		g.groupKey = tree.RootKey() // the root key IS the group key
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
		// Pings keep the replication stream demonstrably alive while the
		// group is quiescent, so the standby's silence detector never
		// confuses an idle group with a dead primary.
		g.running.every(cfg.ReplPing, g.log.ping)
	}
	if g.liveness.enabled() {
		g.running.every(g.liveness.tickEvery(), func() { g.livenessTick(time.Now()) })
	}
	return g, nil
}

// gate admits work — frame handlers, timer ticks — until shut, which
// returns once no admitted work runs and none can start.
type gate struct {
	mu      sync.RWMutex // read-held by each admitted call
	stopped bool
}

// enter admits one call until leave, or fails once the gate is shut.
func (g *gate) enter() bool {
	g.mu.RLock()
	if g.stopped {
		g.mu.RUnlock()
		return false
	}
	return true
}

func (g *gate) leave() { g.mu.RUnlock() }

// shut waits out the admitted calls and turns the rest away.
func (g *gate) shut() {
	g.mu.Lock()
	g.stopped = true
	g.mu.Unlock()
}

// every runs tick every period on a runtime timer, armed again after each
// run, so no goroutine waits between ticks, until the gate shuts.
func (g *gate) every(period time.Duration, tick func()) {
	var run func()
	run = func() {
		if !g.enter() {
			return
		}
		defer g.leave()
		tick()
		time.AfterFunc(period, run)
	}
	time.AfterFunc(period, run)
}

// Name returns the leader's identity.
func (g *Leader) Name() string { return g.name }

// Members returns the current membership in sorted order. It reads only
// the registry, never Leader.mu, so monitoring cannot stall the control
// plane.
func (g *Leader) Members() []string {
	names := g.reg.names()
	slices.Sort(names)
	return names
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
		if g.ServeConn(conn) != nil {
			return nil
		}
	}
}

// Idle reports whether the leader currently has no live connections and no
// accepted members — the Directory's garbage-collection predicate.
func (g *Leader) Idle() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.conns) == 0 && g.reg.size() == 0
}

// Close disconnects every connection (accepted or mid-handshake) and returns
// once no frame handler or tick runs or can start; every member still
// registered leaves as if its connection were lost.
func (g *Leader) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	conns := slices.Collect(maps.Keys(g.conns))
	for _, s := range g.reg.appendAll(nil, "") {
		s.out.Close()
	}
	g.mu.Unlock()
	for _, c := range conns {
		c.Close() // off g.mu: a faultnet Link's Close waits out its pump
	}
	if g.repl != nil {
		g.repl.Detach()
	}
	g.running.shut()
	g.mu.Lock()
	for _, s := range g.reg.appendAll(nil, "") {
		g.hangUpLocked(s.conn, s)
	}
	g.mu.Unlock()
	g.log.stop()
}

// Rekey generates and distributes a new group key now. Use it for periodic
// or event-driven policies beyond join/leave.
func (g *Leader) Rekey() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return errLeaderClosed
	}
	return g.rekeyLocked("manual", nil, "")
}

// rekeyLocked rotates the group key now; cause becomes the Rekeyed record's
// detail. changes names the membership change the rotation answers and skip
// the joiner it must not reach, which gets the current keys from
// sendCurrentKeysLocked instead: the flat path broadcasts one NewGroupKey
// carrying the changes. Under LKH the rotation covers the dirty paths (the
// root always included), and each member's KeyBoxes carries the changes.
func (g *Leader) rekeyLocked(cause string, changes []wire.MemberChange, skip string) error {
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
		g.queueKeyBoxesLocked(ups, changes, skip)
		return nil
	}
	g.broadcastAdminLocked(wire.NewGroupKey{Epoch: g.epoch, Key: kg, Changes: changes}, skip)
	return nil
}

// Expel removes a member against its will (the "variation of this protocol
// [that] can be used to expel some members", Section 2.2): its connection
// is dropped, the group is informed, and the key is rotated per policy, so
// the expelled member's last key dies with its membership.
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
	g.dropLocked(s.conn, s)
	g.mu.Unlock()
	return nil
}

// hangUpLocked ends a connection whose stream or protocol has ended: a
// member still registered leaves, as on a lost connection, and the
// connection is dropped.
func (g *Leader) hangUpLocked(conn transport.Conn, s *memberConn) {
	if s != nil && g.reg.remove(s) {
		mLeaves.Inc()
		g.departedLocked(s.user, changeLeft, "connection lost")
	}
	g.dropLocked(conn, s)
}

// dropLocked closes a served connection, deletes it from g.conns and closes
// the outbox of its member session s, if any, retiring what is left there
// from the gauge: nothing drains a closed connection.
func (g *Leader) dropLocked(conn transport.Conn, s *memberConn) {
	delete(g.conns, conn)
	conn.Close()
	if s != nil {
		s.out.Close()
		left, _ := s.out.PopAll(nil)
		s.drained(len(left))
	}
}

// framesPool lends drain its pop buffer: no member keeps one per batch.
var framesPool = sync.Pool{New: func() any { return new([]outFrame) }}

// drain is the member's transport.Pull: every queued frame, sealed on the
// connection's writer, outside Leader.mu.
func (g *Leader) drain(s *memberConn, buf []transport.Outgoing) []transport.Outgoing {
	fp := framesPool.Get().(*[]outFrame)
	frames, _ := s.out.PopAll(*fp)
	s.drained(len(frames))
	for _, f := range frames {
		if out, ok := g.sealFrame(s, f); ok {
			buf = append(buf, out)
		}
	}
	clear(frames)
	*fp = frames
	framesPool.Put(fp)
	return buf
}

// handle processes one frame from an established member and reports
// whether its session has closed.
func (g *Leader) handle(s *memberConn, env wire.Envelope) bool {
	switch env.Type {
	case wire.TypeAppData:
		g.relay(s, env)
	default:
		return g.handleProtocol(s, env)
	}
	return false
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
		switch err := s.pushOut(outFrame{env: ev.Reply}); {
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
		// after the log's mutex; the member's calls are never concurrent, so
		// its acks are recorded in order.
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

// sealFrame resolves one outbox element into a wire frame. Encoded and
// pre-sealed frames pass through; admin bodies — an LKH rotation's with
// its box chain sealed — go through the member's engine, which seals an
// AdminMsg when the ack-gated pipeline is free and queues the body
// internally otherwise (nothing to transmit yet), folding a notice or key
// into one already queued. The clock is read only for a body that goes out.
func (g *Leader) sealFrame(s *memberConn, f outFrame) (transport.Outgoing, bool) {
	switch {
	case f.enc != nil:
		return transport.Outgoing{Enc: f.enc}, true
	case f.env != nil:
		return transport.Outgoing{Env: *f.env}, true
	}
	// A membership change holds mu for its whole fan-out and this read side
	// waits one out, so nobody holds a rotation's key, and multicasts under
	// it, while a peer's copy is not yet queued: the relayed frame would
	// overtake the key there and be dropped.
	g.mu.RLock()
	closed := g.closed
	g.mu.RUnlock()
	if closed {
		return transport.Outgoing{}, false
	}
	boxes := 0
	if f.box != nil {
		kb := g.sealChain(f.body.(wire.KeyBoxes), f.box)
		f.body, boxes = kb, len(kb.Boxes)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var start time.Time
	if s.engine.Phase() == core.LeaderConnected { // Send emits
		start = time.Now()
	}
	queued, boxes := s.engine.PendingAdmin(), s.engine.PendingBoxes()+boxes
	env, err := s.engine.Send(f.body)
	if err != nil {
		g.logf("group: admin to %s: %v", s.user, err)
		return transport.Outgoing{}, false
	}
	folded := env == nil && s.engine.PendingAdmin() == queued
	switch f.body.(type) {
	case wire.MemberChanges:
		mNotices.Inc()
		if folded {
			mNoticesFolded.Inc()
		}
	case wire.NewGroupKey, wire.KeyBoxes:
		mKeys.Inc()
		if folded {
			mKeysFolded.Inc()
			mLKHFolded.Add(uint64(boxes - s.engine.PendingBoxes()))
		}
	default:
		// The other bodies never fold.
	}
	if env == nil {
		return transport.Outgoing{}, false // queued behind the outstanding AdminMsg
	}
	mSealLatency.Observe(time.Since(start))
	s.trackLocked(*env, start)
	return transport.Outgoing{Env: *env}, true
}

// departedLocked records a departure (left, expelled or evicted, with its
// detail), announces it and rotates the key per policy. The caller must have
// removed the member from the registry already, so the rotation's keys
// cannot reach it.
func (g *Leader) departedLocked(user string, kind changeKind, detail string) {
	mMembers.Add(-1)
	g.tm.left()
	// Prune the departed member's leaf first: the pruning and the surviving
	// path's dirtiness replicate ahead of any rotation, and the eventual
	// RotateDirty retires every key the member held.
	g.leaveTreeLocked(user)
	g.log.record(change{kind: kind, user: user, epoch: g.epoch, detail: detail})
	cause := "leave " + user
	if kind == changeExpelled {
		cause = "expel " + user
	}
	g.announceLocked(wire.Left(user), cause, "", g.rekey.OnLeave && g.reg.size() > 0)
}

// announceLocked tells every member but skip about one membership change and
// rotates if the policy asks for it. A rotation's key body, a NewGroupKey
// or an LKH KeyBoxes, carries the change itself — one AdminMsg per member,
// and after a leave the departed member's key is dead one ack round trip
// later, not two. The notice travels on its own only where no rotation
// carries it: the policy off, a resumption.
func (g *Leader) announceLocked(notice wire.MemberChanges, cause, skip string, rotate bool) {
	if !rotate {
		g.broadcastAdminLocked(notice, skip)
		return
	}
	if err := g.rekeyLocked(cause, notice.Changes, skip); err != nil {
		g.logf("group: rekey (%s): %v", cause, err)
	}
}

// broadcastAdminLocked queues an admin body for every member except skip.
func (g *Leader) broadcastAdminLocked(body wire.AdminBody, skip string) {
	g.broadcastLocked(skip, func(*memberConn) outFrame { return outFrame{body: body} })
}

// broadcastLocked queues frame's admin body for every member except skip.
// Only the enqueues happen under Leader.mu — each connection's writer seals
// the AdminMsgs outside the lock — so the hold time measured here is the
// fan-out cost, not members × AEAD. A caller holding Leader.mu keeps
// broadcasts totally ordered: broadcast N's frames are on every outbox
// before the lock releases and broadcast N+1 can start.
func (g *Leader) broadcastLocked(skip string, frame func(*memberConn) outFrame) {
	start := time.Now()
	g.bcastBuf = g.reg.appendAll(g.bcastBuf[:0], skip)
	var overflowed []*memberConn
	for _, s := range g.bcastBuf {
		if g.pushFrameTo(s, frame(s), start) {
			overflowed = append(overflowed, s)
		}
	}
	clear(g.bcastBuf) // drop member references until the next broadcast
	for _, s := range overflowed {
		g.evictLocked(s, "outbox overflow (slow consumer)")
	}
	mBroadcastHold.Observe(time.Since(start))
}

// sendAdminLocked queues an admin body on one member's outbox for the
// connection's writer to seal; a full outbox evicts per the slow-consumer
// policy (bounded memory beats unbounded hope).
func (g *Leader) sendAdminLocked(s *memberConn, body wire.AdminBody) {
	if g.pushFrameTo(s, outFrame{body: body}, time.Now()) {
		g.evictLocked(s, "outbox overflow (slow consumer)")
	}
}

// pushFrameTo enqueues one frame on a member's outbox and reports overflow
// (true) so the caller can route the eviction through the group lock.
// Heartbeat pacing advances to now only when an admin-body enqueue succeeds,
// and a closed outbox (member tearing down) is not an error worth surfacing.
// It touches only the outbox and the member's own lock, never Leader.mu.
func (g *Leader) pushFrameTo(s *memberConn, f outFrame, now time.Time) bool {
	switch err := s.pushOut(f); {
	case err == nil:
		if f.body != nil {
			s.mu.Lock()
			s.lastAdmin = now
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
	var overflowed []*memberConn
	for _, s := range targets {
		if g.pushFrameTo(s, outFrame{enc: enc}, time.Time{}) {
			overflowed = append(overflowed, s)
		}
	}
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
