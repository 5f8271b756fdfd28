package core

import (
	"errors"
	"testing"

	"enclaves/internal/crypto"
	"enclaves/internal/wire"
)

// resumedPair drives a join to completion, exports both sides' state, and
// rebuilds fresh engines from it — the failover scenario with the promoted
// leader holding the replicated state. It returns the rebuilt engines and
// the Resume envelope already accepted by the leader.
func resumedPair(t *testing.T) (*MemberSession, *LeaderSession, wire.Envelope) {
	t.Helper()
	longTerm := crypto.DeriveKey(testUser, testLeader, "correct horse battery")
	m0, l0 := newPair(t)
	handshake(t, m0, l0)
	adminRound(t, m0, l0, wire.Heartbeat{})

	ms, ok := m0.ExportState()
	if !ok {
		t.Fatal("member export failed while connected")
	}
	ls, ok := l0.ExportState()
	if !ok {
		t.Fatal("leader export failed while connected")
	}
	if !ms.Nonce.Equal(ls.Nonce) {
		t.Fatal("quiescent session: member and leader nonces must agree")
	}

	m, err := ResumeMemberSession(testUser, testLeader, longTerm, ms)
	if err != nil {
		t.Fatal(err)
	}
	l, err := ResumeLeaderSession(testLeader, testUser, longTerm, ls)
	if err != nil {
		t.Fatal(err)
	}
	resume, err := m.StartResume()
	if err != nil {
		t.Fatal(err)
	}
	if resume.Type != wire.TypeResume {
		t.Fatalf("resume envelope type = %v", resume.Type)
	}
	lev, err := l.HandleResume(resume)
	if err != nil {
		t.Fatal(err)
	}
	if !lev.Accepted {
		t.Fatal("leader did not accept the resume")
	}
	return m, l, resume
}

// TestResumeRoundTrip: the full resumption sub-protocol — Resume, ResumeAck
// carrying the post-promotion key, member ack — after which the ordinary
// ack-gated pipeline continues with the chain unbroken.
func TestResumeRoundTrip(t *testing.T) {
	m, l, _ := resumedPair(t)

	key, err := crypto.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	ackEnv, err := l.Send(wire.NewGroupKey{Epoch: 7, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	if ackEnv.Type != wire.TypeResumeAck {
		t.Fatalf("resume ack type = %v", ackEnv.Type)
	}
	mev, err := m.Handle(*ackEnv)
	if err != nil {
		t.Fatal(err)
	}
	if !mev.Connected || mev.Reply == nil {
		t.Fatalf("member event = %+v", mev)
	}
	gk, ok := mev.Admin.(wire.NewGroupKey)
	if !ok || gk.Epoch != 7 || !gk.Key.Equal(key) {
		t.Fatalf("resume ack body = %+v", mev.Admin)
	}
	lev, err := l.Handle(*mev.Reply)
	if err != nil {
		t.Fatal(err)
	}
	if !lev.Acked {
		t.Fatal("leader did not register the completing ack")
	}

	// The pipeline continues as if the failover never happened.
	adminRound(t, m, l, wire.Joined("bob"))
}

// TestResumeReplayRejected: a captured Resume replayed after the genuine one
// carries a nonce the chain has moved past — freshness failure, no state
// change.
func TestResumeReplayRejected(t *testing.T) {
	_, l, resume := resumedPair(t)
	if _, err := l.HandleResume(resume); !errors.Is(err, ErrFreshness) {
		t.Fatalf("replayed Resume: err = %v, want ErrFreshness", err)
	}
}

// TestResumeStaleStateRejected: a Resume built from state older than the
// replicated nonce (the member lost an ack-advance the standby saw) is
// rejected — this member must fall back to the full handshake.
func TestResumeStaleStateRejected(t *testing.T) {
	longTerm := crypto.DeriveKey(testUser, testLeader, "correct horse battery")
	m0, l0 := newPair(t)
	handshake(t, m0, l0)
	stale, _ := m0.ExportState()
	// The pipeline advances past the exported snapshot.
	adminRound(t, m0, l0, wire.Heartbeat{})
	current, _ := l0.ExportState()

	m, err := ResumeMemberSession(testUser, testLeader, longTerm, stale)
	if err != nil {
		t.Fatal(err)
	}
	l, err := ResumeLeaderSession(testLeader, testUser, longTerm, current)
	if err != nil {
		t.Fatal(err)
	}
	resume, err := m.StartResume()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.HandleResume(resume); !errors.Is(err, ErrFreshness) {
		t.Fatalf("stale Resume: err = %v, want ErrFreshness", err)
	}
}

// TestResumeWrongKeyRejected: a Resume sealed under a different session key
// fails authentication outright.
func TestResumeWrongKeyRejected(t *testing.T) {
	longTerm := crypto.DeriveKey(testUser, testLeader, "correct horse battery")
	m0, l0 := newPair(t)
	handshake(t, m0, l0)
	ls, _ := l0.ExportState()
	l, err := ResumeLeaderSession(testLeader, testUser, longTerm, ls)
	if err != nil {
		t.Fatal(err)
	}

	forged := ls
	k, err := crypto.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	forged.SessionKey = k
	m, err := ResumeMemberSession(testUser, testLeader, longTerm, forged)
	if err != nil {
		t.Fatal(err)
	}
	resume, err := m.StartResume()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.HandleResume(resume); !errors.Is(err, ErrAuth) {
		t.Fatalf("forged Resume: err = %v, want ErrAuth", err)
	}
}

// TestResumeAckReplayRejected: replaying the ResumeAck after the member has
// completed resumption is rejected (the member is no longer Resuming), and
// an old AdminMsg from before the failover cannot be injected either — its
// nonce predates the resume exchange.
func TestResumeAckReplayRejected(t *testing.T) {
	m, l, _ := resumedPair(t)
	key, err := crypto.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	ackEnv, err := l.Send(wire.NewGroupKey{Epoch: 7, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Handle(*ackEnv); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Handle(*ackEnv); !errors.Is(err, ErrState) {
		t.Fatalf("replayed ResumeAck: err = %v, want ErrState", err)
	}
}

// TestExportStateGates: state export is only offered for established
// sessions — nothing resumable exists mid-handshake.
func TestExportStateGates(t *testing.T) {
	m, l := newPair(t)
	if _, ok := m.ExportState(); ok {
		t.Error("member exported state before connecting")
	}
	if _, ok := l.ExportState(); ok {
		t.Error("leader exported state before accepting")
	}
	initReq, err := m.Start()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.ExportState(); ok {
		t.Error("member exported state mid-handshake")
	}
	if _, err := l.Handle(initReq); err != nil {
		t.Fatal(err)
	}
	if _, ok := l.ExportState(); ok {
		t.Error("leader exported state mid-handshake")
	}
}

// TestResumeRequiresState: StartResume without imported session state (a
// fresh engine) must refuse — there is nothing to resume.
func TestResumeRequiresState(t *testing.T) {
	m, _ := newPair(t)
	if _, err := m.StartResume(); !errors.Is(err, ErrState) {
		t.Fatalf("StartResume on fresh engine: err = %v, want ErrState", err)
	}
}

// TestLongTermAEADOnlyForTheHandshake: an engine holds the AEAD under
// P_user only until the handshake has used it — the leader's until it has
// sealed the AuthKeyDist, the member's until it has opened it — and a
// resumed engine never builds one, so a resumed member cannot Start a
// password handshake.
func TestLongTermAEADOnlyForTheHandshake(t *testing.T) {
	m, l := newPair(t)
	if m.longTerm == nil || l.longTerm == nil {
		t.Fatal("a fresh engine has no AEAD under P_user")
	}
	initReq, err := m.Start()
	if err != nil {
		t.Fatal(err)
	}
	lev, err := l.Handle(initReq)
	if err != nil {
		t.Fatal(err)
	}
	if l.longTerm != nil {
		t.Error("the leader holds P_user's AEAD after sealing the AuthKeyDist")
	}
	if m.longTerm == nil {
		t.Fatal("the member dropped P_user's AEAD before opening the AuthKeyDist")
	}
	if _, err := m.Handle(*lev.Reply); err != nil {
		t.Fatal(err)
	}
	if m.longTerm != nil {
		t.Error("the member holds P_user's AEAD after opening the AuthKeyDist")
	}

	rm, rl, _ := resumedPair(t)
	if rm.longTerm != nil || rl.longTerm != nil {
		t.Error("a resumed engine built an AEAD under P_user")
	}
	fresh, err := ResumeMemberSession(testUser, testLeader, crypto.DeriveKey(testUser, testLeader, "pw"), SessionState{SessionKey: rm.sessionKey})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Start(); !errors.Is(err, ErrState) {
		t.Fatalf("Start on a resumed engine: err = %v, want ErrState", err)
	}
}
