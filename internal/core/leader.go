package core

import (
	"fmt"
	"slices"

	"enclaves/internal/crypto"
	"enclaves/internal/wire"
)

// LeaderPhase enumerates the per-member leader engine's states (Figure 3).
type LeaderPhase uint8

// Leader phases.
const (
	LeaderIdle LeaderPhase = iota + 1
	LeaderWaitingForKeyAck
	LeaderConnected
	LeaderWaitingForAck
	LeaderClosed
)

func (p LeaderPhase) String() string {
	switch p {
	case LeaderIdle:
		return "Idle"
	case LeaderWaitingForKeyAck:
		return "WaitingForKeyAck"
	case LeaderConnected:
		return "Connected"
	case LeaderWaitingForAck:
		return "WaitingForAck"
	case LeaderClosed:
		return "Closed"
	default:
		return "invalid"
	}
}

// LeaderEvent is the outcome of feeding one envelope to a LeaderSession.
type LeaderEvent struct {
	// Reply, if non-nil, must be transmitted to the member (AuthKeyDist, or
	// the next AdminMsg drained from the queue after an acknowledgment).
	Reply *wire.Envelope
	// Accepted is true when this step accepted the member into the group
	// (the AuthAckKey acceptance event of the authentication property).
	Accepted bool
	// AckedSeq, when Acked is true, is the sequence number of the AdminMsg
	// the member just acknowledged.
	Acked    bool
	AckedSeq uint64
	// Closed is true when this step processed the member's ReqClose.
	Closed bool
}

// LeaderSession is the leader's engine for one member (the leader is the
// composition of one LeaderSession per user, exactly as in Section 4.1).
// It is not safe for concurrent use.
type LeaderSession struct {
	leader   string
	user     string
	longTerm *crypto.Cipher // AEAD under P_user, until AuthKeyDist is sealed

	phase       LeaderPhase
	sessionKey  crypto.Key
	session     *crypto.Cipher // cached AEAD under K_a; nil outside a session
	myNonce     crypto.Nonce   // N_l: our fresh nonce awaiting acknowledgment
	memberNonce crypto.Nonce   // N_a: the member's latest nonce

	pending []wire.AdminBody // admin bodies queued behind the outstanding one
	seq     uint64           // sequence of the next AdminMsg
	sentSeq uint64           // sequence of the outstanding AdminMsg
	// resumeAckDue is set by a verified Resume: the next AdminMsg emitted
	// answers it, so it goes out under the ResumeAck envelope type.
	resumeAckDue bool
}

// NewLeaderSession returns a leader-side engine for the given user,
// authenticated by the shared long-term key P_user. The AEAD key schedule
// for P_user is built here and dropped once the AuthKeyDist is sealed; K_a's
// is cached for the session, so per-message sealing pays only the AEAD
// operation itself.
func NewLeaderSession(leader, user string, longTerm crypto.Key) (*LeaderSession, error) {
	lt, err := newCipher(user, leader, longTerm, longTerm)
	if err != nil {
		return nil, err
	}
	return &LeaderSession{leader: leader, user: user, longTerm: lt, phase: LeaderIdle}, nil
}

// newCipher checks an engine's names and long-term key and returns the AEAD
// under k: P_user itself for a handshake, K_a for a resumption.
func newCipher(user, leader string, longTerm, k crypto.Key) (*crypto.Cipher, error) {
	if user == "" || leader == "" {
		return nil, fmt.Errorf("core: user and leader names must be non-empty")
	}
	if !longTerm.Valid() || !k.Valid() {
		return nil, fmt.Errorf("core: invalid long-term or session key")
	}
	return crypto.NewCipher(k)
}

// User returns the member's identity.
func (l *LeaderSession) User() string { return l.user }

// Phase returns the engine's current phase.
func (l *LeaderSession) Phase() LeaderPhase { return l.phase }

// PendingAdmin returns how many admin bodies are queued (excluding the
// outstanding unacknowledged one, if any).
func (l *LeaderSession) PendingAdmin() int { return len(l.pending) }

// SessionKey returns the session key; valid after the AuthInitReq has been
// accepted and until close.
func (l *LeaderSession) SessionKey() crypto.Key { return l.sessionKey }

// SentSeq returns the sequence number of the most recently emitted AdminMsg
// (zero before the first). Immediately after Send or a Handle that drained a
// Reply, this identifies the envelope just emitted, letting callers key
// retransmit tracking to the acknowledgment's AckedSeq.
func (l *LeaderSession) SentSeq() uint64 { return l.sentSeq }

// Handle feeds one received envelope to the engine. On rejection the engine
// state is unchanged and a typed error is returned.
func (l *LeaderSession) Handle(env wire.Envelope) (LeaderEvent, error) {
	switch env.Type {
	case wire.TypeAuthInitReq:
		return l.handleInitReq(env)
	case wire.TypeAuthAckKey:
		return l.handleKeyAck(env)
	case wire.TypeAck:
		return l.handleAck(env)
	case wire.TypeReqClose:
		return l.handleClose(env)
	default:
		return LeaderEvent{}, fmt.Errorf("%w: leader got %s", ErrState, env.Type)
	}
}

// handleInitReq processes {A, L, N1}_Pa: generate a fresh session key K_a
// and nonce N2, reply with {L, A, N1, N2, Ka}_Pa.
func (l *LeaderSession) handleInitReq(env wire.Envelope) (LeaderEvent, error) {
	if l.phase != LeaderIdle {
		return LeaderEvent{}, fmt.Errorf("%w: AuthInitReq in phase %s", ErrState, l.phase)
	}
	plain, err := l.longTerm.Open(env.Payload, env.Header())
	if err != nil {
		return LeaderEvent{}, fmt.Errorf("%w: init req: %v", ErrAuth, err)
	}
	p, err := wire.UnmarshalAuthInit(plain)
	if err != nil {
		return LeaderEvent{}, fmt.Errorf("%w: init req: %v", ErrAuth, err)
	}
	if p.User != l.user || p.Leader != l.leader {
		return LeaderEvent{}, fmt.Errorf("%w: init req names %q/%q", ErrIdentity, p.User, p.Leader)
	}

	ka, err := crypto.NewKey()
	if err != nil {
		return LeaderEvent{}, err
	}
	session, err := crypto.NewCipher(ka)
	if err != nil {
		return LeaderEvent{}, err
	}
	reply := wire.Envelope{Type: wire.TypeAuthKeyDist, Sender: l.leader, Receiver: l.user}
	dist, n2 := wire.AuthKeyDistPayload{Leader: l.leader, User: l.user, N1: p.N1, SessionKey: ka}.Marshal()
	box, err := l.longTerm.SealPlaintext(dist, reply.Header())
	if err != nil {
		return LeaderEvent{}, err
	}
	reply.Payload = box

	l.sessionKey = ka
	l.session = session
	l.longTerm = nil // P_user seals nothing more
	l.myNonce = n2
	l.phase = LeaderWaitingForKeyAck
	return LeaderEvent{Reply: &reply}, nil
}

// handleKeyAck processes {A, L, N2, N3}_Ka: the member proves possession of
// the session key and freshness; it becomes a group member.
func (l *LeaderSession) handleKeyAck(env wire.Envelope) (LeaderEvent, error) {
	if l.phase != LeaderWaitingForKeyAck {
		return LeaderEvent{}, fmt.Errorf("%w: AuthAckKey in phase %s", ErrState, l.phase)
	}
	p, err := l.openAck(env)
	if err != nil {
		return LeaderEvent{}, err
	}
	if !p.NPrev.Equal(l.myNonce) {
		return LeaderEvent{}, fmt.Errorf("%w: key ack does not echo N2", ErrFreshness)
	}
	l.memberNonce = p.NNext
	l.phase = LeaderConnected
	ev := LeaderEvent{Accepted: true}
	if err := l.maybeSendNext(&ev); err != nil {
		return LeaderEvent{}, err
	}
	return ev, nil
}

// handleAck processes {A, L, N_{2i+2}, N_{2i+3}}_Ka acknowledging the
// outstanding AdminMsg, then drains the next queued body if any.
func (l *LeaderSession) handleAck(env wire.Envelope) (LeaderEvent, error) {
	if l.phase != LeaderWaitingForAck {
		return LeaderEvent{}, fmt.Errorf("%w: Ack in phase %s", ErrState, l.phase)
	}
	p, err := l.openAck(env)
	if err != nil {
		return LeaderEvent{}, err
	}
	if !p.NPrev.Equal(l.myNonce) {
		return LeaderEvent{}, fmt.Errorf("%w: ack does not echo our nonce", ErrFreshness)
	}
	l.memberNonce = p.NNext
	l.phase = LeaderConnected
	ev := LeaderEvent{Acked: true, AckedSeq: l.sentSeq}
	if err := l.maybeSendNext(&ev); err != nil {
		return LeaderEvent{}, err
	}
	return ev, nil
}

// openAck decrypts and validates the shared ack shape {A, L, N, N'}_Ka.
func (l *LeaderSession) openAck(env wire.Envelope) (wire.AckPayload, error) {
	plain, err := l.session.Open(env.Payload, env.Header())
	if err != nil {
		return wire.AckPayload{}, fmt.Errorf("%w: ack: %v", ErrAuth, err)
	}
	p, err := wire.UnmarshalAck(plain)
	if err != nil {
		return wire.AckPayload{}, fmt.Errorf("%w: ack: %v", ErrAuth, err)
	}
	if p.User != l.user || p.Leader != l.leader {
		return wire.AckPayload{}, fmt.Errorf("%w: ack names %q/%q", ErrIdentity, p.User, p.Leader)
	}
	return p, nil
}

// handleClose processes {A, L}_Ka: the session ends and the key is
// discarded (the model releases it via an Oops event — the pessimistic
// assumption the verification is carried out under).
func (l *LeaderSession) handleClose(env wire.Envelope) (LeaderEvent, error) {
	if l.phase == LeaderIdle || l.phase == LeaderClosed {
		return LeaderEvent{}, fmt.Errorf("%w: ReqClose in phase %s", ErrState, l.phase)
	}
	plain, err := l.session.Open(env.Payload, env.Header())
	if err != nil {
		return LeaderEvent{}, fmt.Errorf("%w: close: %v", ErrAuth, err)
	}
	p, err := wire.UnmarshalClose(plain)
	if err != nil {
		return LeaderEvent{}, fmt.Errorf("%w: close: %v", ErrAuth, err)
	}
	if p.User != l.user || p.Leader != l.leader {
		return LeaderEvent{}, fmt.Errorf("%w: close names %q/%q", ErrIdentity, p.User, p.Leader)
	}
	l.phase = LeaderClosed
	l.sessionKey.Zero()
	l.session = nil
	l.pending = nil
	return LeaderEvent{Closed: true}, nil
}

// Send queues a group-management body for delivery. If the pipeline is
// free (Connected with no outstanding AdminMsg) the AdminMsg envelope is
// returned immediately; otherwise it is queued and will be emitted by the
// LeaderEvent of a future acknowledgment. Send before the member is
// accepted queues the body for delivery right after acceptance. Queued
// notices and keys fold (see enqueue), so a burst of k behind one
// outstanding AdminMsg costs one message per round trip, not k.
func (l *LeaderSession) Send(body wire.AdminBody) (*wire.Envelope, error) {
	switch l.phase {
	case LeaderClosed:
		return nil, fmt.Errorf("%w: Send after close", ErrClosed)
	case LeaderConnected:
		return l.emitAdmin(body)
	default:
		l.enqueue(body)
		return nil, nil
	}
}

// enqueue appends body to the pending queue, folding it into the body at
// the tail when both are of one kind and their changes fit in
// wire.MaxDeltaNames: a wire.MemberChanges appends its changes, and a
// wire.NewGroupKey replaces the older key with its epoch and key and both
// bodies' changes, in order. A wire.KeyBoxes folds as a key does, its
// boxes newest-wins per node (foldBoxes). A member skips the superseded key,
// never a change. Only the tail folds, so nothing folds across another
// body. Queued lists are clipped: the first fold copies the caller's
// (possibly shared) array, and later folds append to that private copy.
func (l *LeaderSession) enqueue(body wire.AdminBody) {
	var tail wire.AdminBody
	n := len(l.pending)
	if n > 0 {
		tail = l.pending[n-1]
	}
	switch b := body.(type) {
	case wire.MemberChanges:
		if last, ok := tail.(wire.MemberChanges); ok && len(last.Changes)+len(b.Changes) <= wire.MaxDeltaNames {
			last.Changes = append(last.Changes, b.Changes...)
			l.pending[n-1] = last
			return
		}
		b.Changes = slices.Clip(b.Changes)
		body = b
	case wire.NewGroupKey:
		if last, ok := tail.(wire.NewGroupKey); ok && len(last.Changes)+len(b.Changes) <= wire.MaxDeltaNames {
			b.Changes = append(last.Changes, b.Changes...)
			l.pending[n-1] = b
			return
		}
		b.Changes = slices.Clip(b.Changes)
		body = b
	case wire.KeyBoxes:
		if last, ok := tail.(wire.KeyBoxes); ok && len(last.Changes)+len(b.Changes) <= wire.MaxDeltaNames {
			if boxes := foldBoxes(last.Boxes, b.Boxes); len(boxes) <= wire.MaxPathEntries {
				b.Changes, b.Boxes = append(last.Changes, b.Changes...), boxes
				l.pending[n-1] = b
				return
			}
		}
		b.Changes, b.Boxes = slices.Clip(b.Changes), slices.Clip(b.Boxes)
		body = b
	default:
		// MemberList, PathKeys and Heartbeat never fold.
	}
	l.pending = append(l.pending, body)
}

// foldBoxes returns, in a new array, the older boxes to nodes newer does
// not rotate again, then newer. A rotation rotates every ancestor of a
// node it rotates, so every box still follows the box that seals its Under.
func foldBoxes(older, newer []wire.KeyBox) []wire.KeyBox {
	out := make([]wire.KeyBox, 0, len(older)+len(newer))
	for _, o := range older {
		if !slices.ContainsFunc(newer, func(b wire.KeyBox) bool { return b.Node == o.Node }) {
			out = append(out, o)
		}
	}
	return slices.Clip(append(out, newer...))
}

// PendingBoxes returns how many key boxes the queued bodies carry.
func (l *LeaderSession) PendingBoxes() int {
	n := 0
	for _, body := range l.pending {
		if b, ok := body.(wire.KeyBoxes); ok {
			n += len(b.Boxes)
		}
	}
	return n
}

// maybeSendNext drains the head of the pending queue into ev.Reply when the
// pipeline is free.
func (l *LeaderSession) maybeSendNext(ev *LeaderEvent) error {
	if l.phase != LeaderConnected || len(l.pending) == 0 {
		return nil
	}
	body := l.pending[0]
	l.pending[0] = nil // the backing array outlives the pop
	l.pending = l.pending[1:]
	if len(l.pending) == 0 {
		l.pending = nil // an idle session keeps no array
	}
	env, err := l.emitAdmin(body)
	if err != nil {
		return err
	}
	ev.Reply = env
	return nil
}

// emitAdmin builds {L, A, N_{2i+1}, N_{2i+2}, X}_Ka and moves to
// WaitingForAck. The first message after a verified Resume is the ResumeAck
// {L, A, N_f, N_l, X}_Ka: the same shape under a distinct envelope type,
// authenticated through the AEAD header.
func (l *LeaderSession) emitAdmin(body wire.AdminBody) (*wire.Envelope, error) {
	env := wire.Envelope{Type: wire.TypeAdminMsg, Sender: l.leader, Receiver: l.user}
	if l.resumeAckDue {
		env.Type = wire.TypeResumeAck
	}
	l.seq++
	p, next := wire.AdminMsgPayload{
		Leader: l.leader,
		User:   l.user,
		NPrev:  l.memberNonce,
		Seq:    l.seq,
		Body:   body,
	}.Marshal()
	box, err := l.session.SealPlaintext(p, env.Header())
	if err != nil {
		return nil, err
	}
	env.Payload = box
	l.myNonce = next
	l.sentSeq = l.seq
	l.phase = LeaderWaitingForAck
	l.resumeAckDue = false
	return &env, nil
}
