// Package member implements the user side of an Enclaves application
// (Figure 1): it joins a group through the improved authentication protocol
// (via core.MemberSession), maintains the member's view of the group —
// membership and current group key — from the verified stream of
// group-management messages, and sends and receives application multicast
// encrypted under the group key.
//
// A Member is a transition system driven by the frames it receives, like
// the paper's member (Fig. 2): after the handshake its connection's reader
// calls it with each frame (transport.Push), and its silence watchdog is a
// runtime timer, so a member holds no goroutine.
//
// Because the AdminMsg pipeline is proven to deliver group-management
// messages in order, without duplication, and only from the leader
// (Section 5.4), the view maintained here is exactly the leader's history:
// a compromised member or outsider cannot make this member believe a key or
// membership change the leader did not issue.
package member

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"enclaves/internal/core"
	"enclaves/internal/crypto"
	"enclaves/internal/queue"
	"enclaves/internal/transport"
	"enclaves/internal/wire"
)

// EventKind classifies events delivered to the application.
type EventKind uint8

// Event kinds.
const (
	// EventJoined: a member joined the group.
	EventJoined EventKind = iota + 1
	// EventLeft: a member left or was expelled.
	EventLeft
	// EventRekey: the leader distributed a new group key.
	EventRekey
	// EventData: application data from another member.
	EventData
	// EventClosed: the session ended; Err carries the cause (nil after a
	// voluntary Leave).
	EventClosed
)

func (k EventKind) String() string {
	switch k {
	case EventJoined:
		return "Joined"
	case EventLeft:
		return "Left"
	case EventRekey:
		return "Rekey"
	case EventData:
		return "Data"
	case EventClosed:
		return "Closed"
	default:
		return "invalid"
	}
}

// Event is one notification to the application.
type Event struct {
	Kind  EventKind
	Name  string // member name for Joined/Left
	Epoch uint64 // group-key epoch for Rekey and Data
	From  string // sender for Data
	Data  []byte // payload for Data
	Err   error  // cause for Closed
	// Seq, for events driven by a group-management message, is the
	// AdminMsg's leader-assigned pipeline sequence number — the trace ID
	// that correlates this member-side event with the leader's audit log
	// for the same broadcast. Zero for non-admin events (Data, Closed).
	Seq uint64
}

func (e Event) String() string {
	switch e.Kind {
	case EventJoined:
		return "Joined(" + e.Name + ")"
	case EventLeft:
		return "Left(" + e.Name + ")"
	case EventRekey:
		return fmt.Sprintf("Rekey(epoch=%d)", e.Epoch)
	case EventData:
		return fmt.Sprintf("Data(from=%s, %dB)", e.From, len(e.Data))
	case EventClosed:
		return fmt.Sprintf("Closed(err=%v)", e.Err)
	default:
		return "Event(?)"
	}
}

// ErrNoGroupKey is returned by SendData before the first group key arrives.
var ErrNoGroupKey = errors.New("member: no group key yet")

// ErrLeft is returned by operations after Leave.
var ErrLeft = errors.New("member: session left")

// ErrLeaderSilent is the EventClosed cause when the leader sent nothing for
// longer than Options.SilenceTimeout. It is distinguishable from an
// ordinary connection loss so supervisors (member.Session) know the leader
// is unresponsive — wedged, partitioned, or dead — and should fail over.
var ErrLeaderSilent = errors.New("member: leader silent beyond timeout")

// Options tunes a member session beyond the required identity parameters.
type Options struct {
	// SilenceTimeout closes the session with ErrLeaderSilent when no frame
	// arrives from the leader for this long. Pair it with leader-side
	// heartbeats (group.Liveness.HeartbeatInterval) comfortably shorter
	// than this timeout, or an idle but healthy leader looks dead. Zero
	// disables the watchdog.
	SilenceTimeout time.Duration
	session        *Session // the Session served, if any: events go to its stream
}

// Member is a connected group member.
type Member struct {
	name   string
	leader string
	conn   transport.Conn
	engine *core.MemberSession

	silence  time.Duration
	session  *Session     // Options.session
	lastRecv atomic.Int64 // UnixNano of the most recent received frame
	ended    atomic.Bool  // set under mu by finish; handlers then do nothing

	mu       sync.Mutex
	groupKey crypto.Key
	epoch    uint64
	// groupCipher/prevCipher carry the precomputed AEADs for the group keys
	// above: the AES key schedule and GCM tables are built once per rekey
	// instead of once per multicast seal/open.
	groupCipher *crypto.Cipher
	prevCipher  *crypto.Cipher
	// prevKey/prevEpoch retain the immediately superseded group key for
	// one epoch, so multicast that was in flight across a rekey still
	// decrypts. Anything older is rejected: the forward-secrecy boundary
	// for departed members is one rekey behind the leader's, a documented
	// trade (a member expelled at epoch n reads nothing from epoch n+2 on,
	// and in the default on-leave policy its last key dies immediately
	// after the NEXT membership change).
	prevKey   crypto.Key
	prevEpoch uint64
	view      map[string]bool
	left      bool        // Leave was called
	watchdog  *time.Timer // the silence timer, if any

	// pathKeys is the LKH key bag: every node key this member holds on its
	// leaf-to-root path, by node ID (see lkh.go). Nil until the leader
	// delivers the first PathKeys — i.e. nil for flat-keyed groups. Only
	// the member's frame handlers touch it, one at a time.
	pathKeys map[uint64]crypto.Key

	// lastAdminPayload/lastAck cache the most recently acknowledged
	// AdminMsg and its ack (under mu). When the leader retransmits an
	// unacknowledged AdminMsg (its copy of our ack was lost), the engine
	// rejects the duplicate — the nonce chain already consumed it — but the
	// runtime re-sends the cached ack, which is idempotent: a leader that
	// DID see the first ack rejects the second without state change. This
	// keeps a lost ack from escalating into an ack-deadline eviction.
	lastAdminPayload []byte
	lastAck          *wire.Envelope

	events *queue.Queue[Event]
	done   chan struct{} // closed by the close-out
	// ready is closed, under mu, when the first valid group key is
	// installed (WaitReady).
	ready chan struct{}

	rejected atomic.Uint64 // frames rejected by the engine or epoch checks
}

// Join connects as user to the leader over conn, runs the three-message
// authentication, and hands conn's later frames to the member. The
// long-term key is the P_user shared with the leader (crypto.DeriveKey).
func Join(conn transport.Conn, user, leader string, longTerm crypto.Key) (*Member, error) {
	return JoinOpts(conn, user, leader, longTerm, Options{})
}

// JoinOpts is Join with liveness options.
func JoinOpts(conn transport.Conn, user, leader string, longTerm crypto.Key, opts Options) (*Member, error) {
	engine, err := core.NewMemberSession(user, leader, longTerm)
	if err != nil {
		return nil, err
	}
	initReq, err := engine.Start()
	if err != nil {
		return nil, err
	}
	return attach(conn, engine, initReq, opts)
}

// attach is the one way a session attaches to a group. It sends the engine's
// opening frame — AuthInitReq for a password join, Resume for a failover
// resumption (a join is a resume with no prior state) — reads frames until
// the engine reports MemberConnected, then makes the Member conn's consumer.
// The only difference past the opening frame is what the completing frame
// carries: a ResumeAck brings the post-promotion key material as an admin
// body, which goes through the same apply path as any later AdminMsg, so a
// resumed Member is ready on return while a joined one waits for its first
// key (WaitReady). On failure the caller still owns conn.
func attach(conn transport.Conn, engine *core.MemberSession, opening wire.Envelope, opts Options) (*Member, error) {
	// The silence timeout also bounds the exchange itself: neither handshake
	// retransmits, so over a lossy link a lost frame would otherwise block
	// Recv below forever. Closing the conn fails the attempt so a supervisor
	// can redial or fall back.
	if opts.SilenceTimeout > 0 {
		bound := time.AfterFunc(opts.SilenceTimeout, func() { conn.Close() })
		defer bound.Stop()
	}
	if err := conn.Send(opening); err != nil {
		return nil, fmt.Errorf("member: send %s: %w", opening.Type, err)
	}
	// A hostile network may interleave junk, which the engine rejects without
	// state change; the one frame it accepts (AuthKeyDist or ResumeAck)
	// completes the exchange. A refused resumption is never answered — it
	// surfaces as the leader dropping the connection.
	var (
		env wire.Envelope
		ev  core.MemberEvent
	)
	for !ev.Connected {
		var err error
		if env, err = conn.Recv(); err != nil {
			return nil, fmt.Errorf("member: awaiting reply to %s: %w", opening.Type, err)
		}
		ev, _ = engine.Handle(env) // a rejected frame yields the zero event
	}

	m := &Member{
		name:    engine.User(),
		leader:  engine.Leader(),
		conn:    conn,
		engine:  engine,
		silence: opts.SilenceTimeout,
		session: opts.session,
		view:    map[string]bool{engine.User(): true},
		events:  queue.New[Event](),
		done:    make(chan struct{}),
		ready:   make(chan struct{}),
	}
	if m.session != nil {
		m.events = m.session.events
	}
	m.mu.Lock()
	out := m.applyAdminLocked(ev, env.Payload)
	keyed := m.groupKey.Valid()
	m.mu.Unlock()
	resumed := opening.Type == wire.TypeResume
	if resumed && !keyed {
		return nil, errors.New("member: resume ack carried no group key")
	}
	// The completing reply goes out only now: the leader (re)starts the
	// pipeline on it, and what follows must find this frame's events queued
	// ahead of its own.
	if err := conn.Send(*ev.Reply); err != nil {
		return nil, fmt.Errorf("member: send %s: %w", ev.Reply.Type, err)
	}
	if resumed {
		mResumed.Inc()
	}
	m.emit(out, ev.Seq)
	m.lastRecv.Store(time.Now().UnixNano())
	if m.silence > 0 {
		m.mu.Lock() // the timer reads its own handle under m.mu
		m.watchdog = time.AfterFunc(m.silence, m.checkSilence)
		m.mu.Unlock()
	}
	conn.Consume(m.push)
	return m, nil
}

// checkSilence is the silence timer, the member-side half of the liveness
// layer: it re-arms for the rest of the timeout while frames arrive, and past
// it ends the session with ErrLeaderSilent, so a supervisor can fail over.
func (m *Member) checkSilence() {
	if quiet := time.Since(time.Unix(0, m.lastRecv.Load())); quiet < m.silence {
		m.mu.Lock()
		if !m.ended.Load() {
			m.watchdog.Reset(m.silence - quiet)
		}
		m.mu.Unlock()
	} else if m.finish(ErrLeaderSilent) {
		mWatchdogTrips.Inc()
		m.conn.Close()
	}
}

// finish is the one close-out, run by the first end with its cause: Leave
// (nil, whatever raced it), the silence timer (ErrLeaderSilent) or the end of
// the stream (transport.ErrClosed). EventClosed is the last event (a
// Session's member reports to the Session instead). It reports whether it ran.
func (m *Member) finish(cause error) bool {
	m.mu.Lock()
	if m.ended.Load() {
		m.mu.Unlock()
		return false
	}
	m.ended.Store(true)
	if m.left {
		cause = nil
	}
	if m.session == nil {
		m.events.Push(Event{Kind: EventClosed, Err: cause})
		m.events.Close()
	}
	close(m.done)
	if m.watchdog != nil {
		m.watchdog.Stop()
	}
	m.mu.Unlock()
	if m.session != nil {
		m.session.lost(m, cause)
	}
	return true
}

// Name returns this member's identity.
func (m *Member) Name() string { return m.name }

// Leader returns the leader's identity.
func (m *Member) Leader() string { return m.leader }

// Members returns this member's current view of the group, sorted.
func (m *Member) Members() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.view))
	for u := range m.view {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// Epoch returns the current group-key epoch (0 until the first key
// arrives).
func (m *Member) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// GroupKey returns the current group key and epoch. Exposed for tests and
// attack scenarios.
func (m *Member) GroupKey() (crypto.Key, uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.groupKey, m.epoch
}

// WaitReady blocks until the leader's first group key has arrived (the
// session is then fully usable for SendData), the session closes, or the
// timeout expires. The improved protocol distributes the group key in a
// group-management message AFTER authentication (Section 3.2 removed K_g
// from the handshake), so there is a short window where a freshly joined
// member cannot encrypt yet.
func (m *Member) WaitReady(timeout time.Duration) error {
	return m.waitReady(timeout, nil)
}

// waitReady is WaitReady that also gives up when cancel closes.
func (m *Member) waitReady(timeout time.Duration, cancel <-chan struct{}) error {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-m.ready:
	case <-m.done: // the connection died or was left first; no key will come
	case <-t.C:
	case <-cancel:
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case m.groupKey.Valid():
		return nil
	case m.left:
		return ErrLeft
	}
	return ErrNoGroupKey
}

// Rejected returns how many frames were rejected as replays, forgeries, or
// stale-epoch traffic — the observable footprint of tolerated intrusion
// attempts.
func (m *Member) Rejected() uint64 { return m.rejected.Load() }

// reject records one rejected frame, both per member and in the global
// snapshot.
func (m *Member) reject() {
	m.rejected.Add(1)
	mRejected.Inc()
}

// Next blocks until the next event (or EventClosed).
func (m *Member) Next() (Event, error) {
	ev, err := m.events.Pop()
	if err != nil {
		return Event{Kind: EventClosed}, ErrLeft
	}
	return ev, nil
}

// TryNext returns the next event without blocking.
func (m *Member) TryNext() (Event, bool) {
	return m.events.TryPop()
}

// SendData multicasts application data to the group, encrypted under the
// current group key.
func (m *Member) SendData(data []byte) error {
	m.mu.Lock()
	gc, epoch, left := m.groupCipher, m.epoch, m.left
	m.mu.Unlock()
	if left {
		return ErrLeft
	}
	if gc == nil {
		return ErrNoGroupKey
	}
	env := wire.Envelope{Type: wire.TypeAppData, Sender: m.name, Receiver: m.leader}
	payload := wire.AppDataPayload{Sender: m.name, Epoch: epoch, Data: data}
	box, err := gc.Seal(payload.Marshal(), env.Header())
	if err != nil {
		return err
	}
	env.Payload = box
	return m.conn.Send(env)
}

// Leave ends the session with the unreplayable ReqClose and closes the
// connection. The session's EventClosed carries nil.
func (m *Member) Leave() error {
	m.mu.Lock()
	if m.left {
		m.mu.Unlock()
		return ErrLeft
	}
	m.left = true
	closeEnv, err := m.engine.Leave()
	m.mu.Unlock()
	if err == nil {
		err = m.conn.Send(closeEnv)
	}
	// Closing the connection sends what was queued on it first, so the
	// ReqClose is not lost to the teardown.
	m.conn.Close()
	m.finish(nil)
	return err
}

// push is the member as its connection's reader drives it: each frame goes
// to the engine, and the end of the stream ends the session.
func (m *Member) push(env wire.Envelope, ok bool) {
	if !ok {
		m.finish(transport.ErrClosed)
		return
	}
	if m.ended.Load() {
		return
	}
	m.lastRecv.Store(time.Now().UnixNano())
	m.handle(env)
}

// handle processes one received frame.
func (m *Member) handle(env wire.Envelope) {
	switch env.Type {
	case wire.TypeAdminMsg, wire.TypeResumeAck:
		// A retransmitted ResumeAck (our completing ack was lost) is rejected
		// by the engine — the resumption already consumed it — but the re-ack
		// cache seeded by attach answers it, same as a duplicate AdminMsg.
		m.handleAdmin(env)
	case wire.TypeAppData:
		m.handleAppData(env)
	default:
		m.reject()
	}
}

// handleAdmin feeds an AdminMsg to the engine, applies the body to the view,
// sends the acknowledgment off m.mu, then queues the body's events. A
// KeyBoxes body's boxes open off m.mu first; one that does not ends the
// member with ErrKeyBox, unacknowledged.
func (m *Member) handleAdmin(env wire.Envelope) {
	m.mu.Lock()
	if m.ended.Load() {
		m.mu.Unlock()
		return
	}
	ev, err := m.engine.Handle(env)
	if err != nil {
		// A duplicate of the last acked AdminMsg means the leader never got
		// our ack; re-send it. Anything else is junk to tolerate.
		var resend *wire.Envelope
		if m.lastAck != nil && bytes.Equal(env.Payload, m.lastAdminPayload) {
			resend = m.lastAck
		}
		m.mu.Unlock()
		m.reject()
		if resend != nil {
			mReacks.Inc()
			m.conn.Send(*resend)
		}
		return
	}
	if body, ok := ev.Admin.(wire.KeyBoxes); ok {
		m.mu.Unlock()
		if err := m.openBoxes(body); err != nil {
			if m.finish(err) {
				m.conn.Close()
			}
			return
		}
		m.mu.Lock()
	}
	out := m.applyAdminLocked(ev, env.Payload)
	m.mu.Unlock()
	if m.conn.Send(*ev.Reply) == nil {
		m.emit(out, ev.Seq)
	}
}

// applyAdminLocked applies one frame the engine accepted to the member's
// state — key material and view — and caches its acknowledgment for re-acks.
// It returns the application events to emit, in order. The join handshake's
// AuthKeyDist is the one accepted frame without a body: nothing to apply,
// and its reply is never re-sent. Caller holds m.mu.
func (m *Member) applyAdminLocked(ev core.MemberEvent, payload []byte) []Event {
	var out []Event
	switch body := ev.Admin.(type) {
	case nil:
		return nil
	case wire.NewGroupKey:
		// The changes the rotation answers apply first, so the application
		// sees who left or joined before the key that followed.
		out = m.applyChangesLocked(out, body.Changes)
		m.installGroupKeyLocked(body.Key, body.Epoch)
		out = append(out, Event{Kind: EventRekey, Epoch: body.Epoch})
	case wire.KeyBoxes:
		// handleAdmin opened the boxes into the bag; the root box's key is
		// the new group key.
		out = m.applyChangesLocked(out, body.Changes)
		for _, b := range body.Boxes {
			if b.Root {
				m.installGroupKeyLocked(m.pathKeys[b.Node], body.Epoch)
				out = append(out, Event{Kind: EventRekey, Epoch: body.Epoch})
			}
		}
	case wire.PathKeys:
		out = append(out, m.applyPathKeysLocked(body))
	case wire.MemberChanges:
		out = m.applyChangesLocked(out, body.Changes)
	case wire.MemberList:
		m.view = make(map[string]bool, len(body.Names))
		for _, n := range body.Names {
			m.view[n] = true
		}
		out = append(out, Event{Kind: EventJoined, Name: m.name}) // our own join completed
	case wire.Heartbeat:
		// Liveness probe: the ack is the whole point; no application event.
		// Receipt already refreshed the silence watchdog.
	}
	m.lastAdminPayload = append(m.lastAdminPayload[:0], payload...)
	ack := *ev.Reply
	m.lastAck = &ack
	return out
}

// applyChangesLocked applies membership changes to the view in order, one
// event each: changes the leader folded into one body read exactly as if
// they had come one message apiece. Caller holds m.mu.
func (m *Member) applyChangesLocked(out []Event, changes []wire.MemberChange) []Event {
	for _, c := range changes {
		if c.Left {
			delete(m.view, c.Name)
			out = append(out, Event{Kind: EventLeft, Name: c.Name})
		} else {
			m.view[c.Name] = true
			out = append(out, Event{Kind: EventJoined, Name: c.Name})
		}
	}
	return out
}

// emit queues the events produced by one group-management message for the
// application, each correlated with the leader's pipeline sequence, unless
// the session has ended.
func (m *Member) emit(out []Event, seq uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ended.Load() {
		return
	}
	for _, e := range out {
		if e.Kind != 0 {
			e.Seq = seq
			m.events.Push(e)
			mEvents.Inc()
		}
	}
}

// handleAppData decrypts relayed application data under the current group
// key; traffic under old epochs (e.g. replays predating a rekey) is
// rejected.
func (m *Member) handleAppData(env wire.Envelope) {
	m.mu.Lock()
	gc, epoch := m.groupCipher, m.epoch
	prev, prevEpoch := m.prevCipher, m.prevEpoch
	m.mu.Unlock()
	if gc == nil {
		m.reject()
		return
	}
	// Try the current key first, then the one-epoch grace key for traffic
	// that was in flight across a rekey.
	plain, err := gc.Open(env.Payload, env.Header())
	wantEpoch := epoch
	if err != nil && prev != nil {
		plain, err = prev.Open(env.Payload, env.Header())
		wantEpoch = prevEpoch
	}
	if err != nil {
		m.reject()
		return
	}
	p, err := wire.UnmarshalAppData(plain)
	if err != nil || p.Epoch != wantEpoch {
		m.reject()
		return
	}
	m.mu.Lock()
	if !m.ended.Load() {
		m.events.Push(Event{Kind: EventData, From: p.Sender, Epoch: p.Epoch, Data: p.Data})
		mEvents.Inc()
	}
	m.mu.Unlock()
}
