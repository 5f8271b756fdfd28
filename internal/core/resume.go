package core

import (
	"fmt"

	"enclaves/internal/crypto"
	"enclaves/internal/wire"
)

// This file implements the session-resumption sub-protocol engines for hot
// failover. A member whose leader went silent re-attaches to the promoted
// standby under its EXISTING session key and chained nonce — no password
// re-handshake:
//
//	Resume     {A, L, N_last, N_f}_Ka   (member -> standby, TypeResume)
//	ResumeAck  {L, A, N_f, N_l, X}_Ka   (standby -> member, TypeResumeAck)
//	Ack        {A, L, N_l, N'}_Ka       (member -> standby, standard Ack)
//
// N_last is the member's most recent chained nonce; the standby matches it
// against the session state replicated from the primary, so a replayed
// Resume carries a stale nonce and is rejected. The ResumeAck reuses the
// verified AdminMsg shape, carrying the post-promotion NewGroupKey as its
// body; from the member's ack on, the ordinary ack-gated pipeline continues
// with the chain unbroken.

// SessionState is the replicable snapshot of one established session: the
// minimum a standby needs to resume it. Both engines export it.
type SessionState struct {
	User       string
	Leader     string
	SessionKey crypto.Key
	// Nonce is the member's latest chained nonce (the same value on both
	// sides when the pipeline is quiescent).
	Nonce crypto.Nonce
	// Seq is the AdminMsg pipeline sequence (leader side; zero for members).
	Seq uint64
}

// ExportState snapshots the leader engine's resumable session state. It
// reports false while no session is established (the member's latest nonce
// only exists from acceptance on).
func (l *LeaderSession) ExportState() (SessionState, bool) {
	if l.phase != LeaderConnected && l.phase != LeaderWaitingForAck {
		return SessionState{}, false
	}
	return SessionState{
		User:       l.user,
		Leader:     l.leader,
		SessionKey: l.sessionKey,
		Nonce:      l.memberNonce,
		Seq:        l.seq,
	}, true
}

// ResumeLeaderSession rebuilds a leader-side engine from replicated session
// state, Connected and ready to verify the member's Resume. The promoted
// standby constructs one per replicated member. It never needs P_user's
// AEAD, so it builds none; longTerm is only checked.
func ResumeLeaderSession(leader, user string, longTerm crypto.Key, st SessionState) (*LeaderSession, error) {
	session, err := newCipher(user, leader, longTerm, st.SessionKey)
	if err != nil {
		return nil, err
	}
	return &LeaderSession{leader: leader, user: user, phase: LeaderConnected,
		sessionKey: st.SessionKey, session: session, memberNonce: st.Nonce, seq: st.Seq}, nil
}

// HandleResume verifies a member's Resume against the replicated session
// state: the payload must authenticate under K_a and echo the member's
// latest replicated nonce. On success the chain advances to the member's
// fresh nonce, and the next body the caller Sends — the post-promotion key
// material — goes out as the ResumeAck; the member's standard Ack then
// resumes the pipeline.
func (l *LeaderSession) HandleResume(env wire.Envelope) (LeaderEvent, error) {
	if env.Type != wire.TypeResume {
		return LeaderEvent{}, fmt.Errorf("%w: HandleResume got %s", ErrState, env.Type)
	}
	if l.phase != LeaderConnected {
		return LeaderEvent{}, fmt.Errorf("%w: Resume in phase %s", ErrState, l.phase)
	}
	p, err := l.openAck(env)
	if err != nil {
		return LeaderEvent{}, err
	}
	// A captured Resume replayed later carries a nonce the chain has moved
	// past (the successful resume advanced it), so it is rejected here.
	if !p.NPrev.Equal(l.memberNonce) {
		return LeaderEvent{}, fmt.Errorf("%w: resume does not echo the replicated nonce", ErrFreshness)
	}
	l.memberNonce = p.NNext
	l.resumeAckDue = true
	return LeaderEvent{Accepted: true}, nil
}

// --- member side ---

// ExportState snapshots the member engine's resumable session state; false
// while not Connected.
func (m *MemberSession) ExportState() (SessionState, bool) {
	if m.phase != MemberConnected {
		return SessionState{}, false
	}
	return SessionState{
		User:       m.user,
		Leader:     m.leader,
		SessionKey: m.sessionKey,
		Nonce:      m.myNonce,
	}, true
}

// ResumeMemberSession rebuilds a member engine from the session state of a
// previous connection, ready to StartResume against a promoted standby.
// Like the leader's, it holds no AEAD under P_user, so it cannot Start.
func ResumeMemberSession(user, leader string, longTerm crypto.Key, st SessionState) (*MemberSession, error) {
	session, err := newCipher(user, leader, longTerm, st.SessionKey)
	if err != nil {
		return nil, err
	}
	return &MemberSession{user: user, leader: leader, phase: MemberNotConnected,
		sessionKey: st.SessionKey, session: session, myNonce: st.Nonce}, nil
}

// StartResume begins resumption: it returns the Resume envelope
// {A, L, N_last, N_f}_Ka and moves to Resuming. The fresh N_f becomes the
// member's latest nonce, so the ResumeAck must echo it.
func (m *MemberSession) StartResume() (wire.Envelope, error) {
	if m.phase != MemberNotConnected || m.session == nil {
		return wire.Envelope{}, fmt.Errorf("%w: StartResume in phase %s", ErrState, m.phase)
	}
	env := wire.Envelope{Type: wire.TypeResume, Sender: m.user, Receiver: m.leader}
	p, nf := wire.AckPayload{User: m.user, Leader: m.leader, NPrev: m.myNonce}.Marshal()
	box, err := m.session.SealPlaintext(p, env.Header())
	if err != nil {
		return wire.Envelope{}, err
	}
	env.Payload = box
	m.myNonce = nf
	m.phase = MemberResuming
	return env, nil
}
