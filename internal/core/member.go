package core

import (
	"fmt"

	"enclaves/internal/crypto"
	"enclaves/internal/wire"
)

// MemberPhase enumerates the member engine's states (Figure 2).
type MemberPhase uint8

// Member phases.
const (
	MemberNotConnected MemberPhase = iota + 1
	MemberWaitingForKey
	MemberConnected
	MemberClosed
	// MemberResuming: a Resume is outstanding against a promoted standby
	// (session-resumption sub-protocol, see resume.go).
	MemberResuming
)

func (p MemberPhase) String() string {
	switch p {
	case MemberNotConnected:
		return "NotConnected"
	case MemberWaitingForKey:
		return "WaitingForKey"
	case MemberConnected:
		return "Connected"
	case MemberClosed:
		return "Closed"
	case MemberResuming:
		return "Resuming"
	default:
		return "invalid"
	}
}

// MemberEvent is the outcome of feeding one envelope to a MemberSession.
type MemberEvent struct {
	// Reply, if non-nil, must be transmitted to the leader.
	Reply *wire.Envelope
	// Connected is true when this step completed the handshake.
	Connected bool
	// Admin, if non-nil, is a group-management payload accepted in order;
	// Seq is its leader-assigned sequence number within the session.
	Admin wire.AdminBody
	Seq   uint64
}

// MemberSession is the user-side engine of the improved protocol. It is not
// safe for concurrent use; drive it from a single goroutine.
type MemberSession struct {
	user     string
	leader   string
	longTerm *crypto.Cipher // AEAD under P_user, until AuthKeyDist is opened

	phase      MemberPhase
	n1         crypto.Nonce // nonce of the outstanding AuthInitReq
	myNonce    crypto.Nonce // N_{2i+1}: the member's latest fresh nonce
	sessionKey crypto.Key
	session    *crypto.Cipher // cached AEAD under K_a; nil outside a session

	accepted uint64 // count of admin messages accepted this session
}

// NewMemberSession returns a member engine for the given user, using the
// long-term key P_user shared with the leader (see crypto.DeriveKey). As on
// the leader side, P_user's AEAD lives until the handshake uses it up and
// K_a's is cached for the session.
func NewMemberSession(user, leader string, longTerm crypto.Key) (*MemberSession, error) {
	lt, err := newCipher(user, leader, longTerm, longTerm)
	if err != nil {
		return nil, err
	}
	return &MemberSession{user: user, leader: leader, longTerm: lt, phase: MemberNotConnected}, nil
}

// User returns the member's identity.
func (m *MemberSession) User() string { return m.user }

// Leader returns the leader's identity.
func (m *MemberSession) Leader() string { return m.leader }

// Phase returns the engine's current phase.
func (m *MemberSession) Phase() MemberPhase { return m.phase }

// Accepted returns how many group-management messages have been accepted in
// this session (the length of rcv_A in the model).
func (m *MemberSession) Accepted() uint64 { return m.accepted }

// SessionKey returns the established session key; it is only valid while
// Connected.
func (m *MemberSession) SessionKey() crypto.Key { return m.sessionKey }

// Start begins the join protocol: it returns the AuthInitReq envelope
// (message 1 of Section 3.2) and moves to WaitingForKey.
func (m *MemberSession) Start() (wire.Envelope, error) {
	if m.phase != MemberNotConnected || m.longTerm == nil {
		return wire.Envelope{}, fmt.Errorf("%w: Start in phase %s", ErrState, m.phase)
	}
	env := wire.Envelope{Type: wire.TypeAuthInitReq, Sender: m.user, Receiver: m.leader}
	payload, n1 := wire.AuthInitPayload{User: m.user, Leader: m.leader}.Marshal()
	box, err := m.longTerm.SealPlaintext(payload, env.Header())
	if err != nil {
		return wire.Envelope{}, err
	}
	env.Payload = box
	m.n1 = n1
	m.phase = MemberWaitingForKey
	return env, nil
}

// Handle feeds one received envelope to the engine. On rejection the engine
// state is unchanged and a typed error is returned; the session remains
// usable.
func (m *MemberSession) Handle(env wire.Envelope) (MemberEvent, error) {
	switch env.Type {
	case wire.TypeAuthKeyDist:
		return m.handleKeyDist(env)
	case wire.TypeAdminMsg, wire.TypeResumeAck:
		return m.handleAdmin(env)
	default:
		return MemberEvent{}, fmt.Errorf("%w: member got %s", ErrState, env.Type)
	}
}

// handleKeyDist processes message 2 of the authentication protocol,
// {L, A, N1, N2, Ka}_Pa, and replies with message 3, {A, L, N2, N3}_Ka.
func (m *MemberSession) handleKeyDist(env wire.Envelope) (MemberEvent, error) {
	if m.phase != MemberWaitingForKey {
		return MemberEvent{}, fmt.Errorf("%w: AuthKeyDist in phase %s", ErrState, m.phase)
	}
	plain, err := m.longTerm.Open(env.Payload, env.Header())
	if err != nil {
		return MemberEvent{}, fmt.Errorf("%w: key dist: %v", ErrAuth, err)
	}
	p, err := wire.UnmarshalAuthKeyDist(plain)
	if err != nil {
		return MemberEvent{}, fmt.Errorf("%w: key dist: %v", ErrAuth, err)
	}
	if p.Leader != m.leader || p.User != m.user {
		return MemberEvent{}, fmt.Errorf("%w: key dist names %q/%q", ErrIdentity, p.Leader, p.User)
	}
	if !p.N1.Equal(m.n1) {
		return MemberEvent{}, fmt.Errorf("%w: key dist does not echo our N1", ErrFreshness)
	}

	session, err := crypto.NewCipher(p.SessionKey)
	if err != nil {
		return MemberEvent{}, err
	}
	reply := wire.Envelope{Type: wire.TypeAuthAckKey, Sender: m.user, Receiver: m.leader}
	ack, n3 := wire.AckPayload{User: m.user, Leader: m.leader, NPrev: p.N2}.Marshal()
	box, err := session.SealPlaintext(ack, reply.Header())
	if err != nil {
		return MemberEvent{}, err
	}
	reply.Payload = box

	m.sessionKey = p.SessionKey
	m.session = session
	m.longTerm = nil // P_user opens nothing more
	m.myNonce = n3
	m.phase = MemberConnected
	m.accepted = 0
	return MemberEvent{Reply: &reply, Connected: true}, nil
}

// handleAdmin processes a group-management message
// {L, A, N_{2i+1}, N_{2i+2}, X}_Ka and acknowledges it with
// {A, L, N_{2i+2}, N_{2i+3}}_Ka (Section 3.2). The standby's ResumeAck is
// the same message under its own envelope type (authenticated through the
// AEAD header), accepted only while Resuming: it must echo the fresh resume
// nonce, completes the resumption, and its Ack restarts the pipeline.
func (m *MemberSession) handleAdmin(env wire.Envelope) (MemberEvent, error) {
	want := MemberConnected
	if env.Type == wire.TypeResumeAck {
		want = MemberResuming
	}
	if m.phase != want {
		return MemberEvent{}, fmt.Errorf("%w: %s in phase %s", ErrState, env.Type, m.phase)
	}
	plain, err := m.session.Open(env.Payload, env.Header())
	if err != nil {
		return MemberEvent{}, fmt.Errorf("%w: admin msg: %v", ErrAuth, err)
	}
	p, err := wire.UnmarshalAdminMsg(plain)
	if err != nil {
		return MemberEvent{}, fmt.Errorf("%w: admin msg: %v", ErrAuth, err)
	}
	if p.Leader != m.leader || p.User != m.user {
		return MemberEvent{}, fmt.Errorf("%w: admin msg names %q/%q", ErrIdentity, p.Leader, p.User)
	}
	// The message must carry the nonce we generated most recently; an old
	// captured AdminMsg carries an older nonce and is rejected here. This
	// is the guard that defeats the Section 2.3 replay attacks.
	if !p.NPrev.Equal(m.myNonce) {
		return MemberEvent{}, fmt.Errorf("%w: admin msg carries stale nonce", ErrFreshness)
	}

	reply := wire.Envelope{Type: wire.TypeAck, Sender: m.user, Receiver: m.leader}
	ack, next := wire.AckPayload{User: m.user, Leader: m.leader, NPrev: p.NNext}.Marshal()
	box, err := m.session.SealPlaintext(ack, reply.Header())
	if err != nil {
		return MemberEvent{}, err
	}
	reply.Payload = box

	m.myNonce = next
	m.phase = MemberConnected
	m.accepted++
	return MemberEvent{Reply: &reply, Connected: want == MemberResuming, Admin: p.Body, Seq: p.Seq}, nil
}

// Leave ends the session: it returns the ReqClose envelope {A, L}_Ka and
// moves to Closed. At most one close exists per session key, so the message
// cannot be replayed into a different session.
func (m *MemberSession) Leave() (wire.Envelope, error) {
	if m.phase != MemberConnected {
		return wire.Envelope{}, fmt.Errorf("%w: Leave in phase %s", ErrState, m.phase)
	}
	env := wire.Envelope{Type: wire.TypeReqClose, Sender: m.user, Receiver: m.leader}
	payload := wire.ClosePayload{User: m.user, Leader: m.leader}
	box, err := m.session.Seal(payload.Marshal(), env.Header())
	if err != nil {
		return wire.Envelope{}, err
	}
	env.Payload = box
	m.phase = MemberClosed
	m.sessionKey.Zero()
	m.session = nil
	return env, nil
}
