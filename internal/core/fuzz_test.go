package core

import (
	"math/rand"
	"testing"

	"enclaves/internal/crypto"
	"enclaves/internal/wire"
)

// These tests attack the engines with randomized mutations of genuine
// protocol traffic: bit flips, truncations, label rewrites and endpoint
// rewrites. The intrusion-tolerance contract is that NO mutated frame is
// ever accepted and NO frame — however malformed — changes engine state or
// causes a panic.

// mutate returns a corrupted copy of the envelope.
func mutate(r *rand.Rand, env wire.Envelope) wire.Envelope {
	out := env
	out.Payload = append([]byte(nil), env.Payload...)
	switch r.Intn(5) {
	case 0: // bit flip
		if len(out.Payload) > 0 {
			out.Payload[r.Intn(len(out.Payload))] ^= 1 << r.Intn(8)
		}
	case 1: // truncation
		if len(out.Payload) > 1 {
			out.Payload = out.Payload[:r.Intn(len(out.Payload))]
		}
	case 2: // extension
		out.Payload = append(out.Payload, byte(r.Intn(256)))
	case 3: // label rewrite
		labels := []wire.Type{
			wire.TypeAuthInitReq, wire.TypeAuthKeyDist, wire.TypeAuthAckKey,
			wire.TypeAdminMsg, wire.TypeAck, wire.TypeReqClose, wire.TypeAppData,
		}
		out.Type = labels[r.Intn(len(labels))]
	case 4: // endpoint rewrite
		out.Sender = "mallory"
	}
	return out
}

// sameMember captures the observable state of a member engine.
func memberSnapshot(m *MemberSession) [3]any {
	return [3]any{m.Phase(), m.Accepted(), m.SessionKey()}
}

func leaderSnapshot(l *LeaderSession) [3]any {
	return [3]any{l.Phase(), l.PendingAdmin(), l.SessionKey()}
}

// TestMutatedHandshakeFramesRejected replays mutated handshake traffic into
// both engines at every stage.
func TestMutatedHandshakeFramesRejected(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		m, l := newPair(t)
		initReq, err := m.Start()
		if err != nil {
			t.Fatal(err)
		}

		// Stage 1: mutated AuthInitReq at the leader.
		for i := 0; i < 20; i++ {
			bad := mutate(r, initReq)
			if bad.Type == initReq.Type && string(bad.Payload) == string(initReq.Payload) && bad.Sender == initReq.Sender {
				continue // mutation was a no-op
			}
			before := leaderSnapshot(l)
			if _, err := l.Handle(bad); err == nil {
				t.Fatalf("leader accepted mutated AuthInitReq (trial %d)", trial)
			}
			if leaderSnapshot(l) != before {
				t.Fatal("rejected frame changed leader state")
			}
		}
		lev, err := l.Handle(initReq)
		if err != nil {
			t.Fatal(err)
		}

		// Stage 2: mutated AuthKeyDist at the member.
		keyDist := *lev.Reply
		for i := 0; i < 20; i++ {
			bad := mutate(r, keyDist)
			if bad.Type == keyDist.Type && string(bad.Payload) == string(keyDist.Payload) && bad.Sender == keyDist.Sender {
				continue
			}
			before := memberSnapshot(m)
			if _, err := m.Handle(bad); err == nil {
				t.Fatalf("member accepted mutated AuthKeyDist (trial %d)", trial)
			}
			if memberSnapshot(m) != before {
				t.Fatal("rejected frame changed member state")
			}
		}
		mev, err := m.Handle(keyDist)
		if err != nil {
			t.Fatal(err)
		}

		// Stage 3: mutated AuthAckKey at the leader.
		keyAck := *mev.Reply
		for i := 0; i < 20; i++ {
			bad := mutate(r, keyAck)
			if bad.Type == keyAck.Type && string(bad.Payload) == string(keyAck.Payload) && bad.Sender == keyAck.Sender {
				continue
			}
			if _, err := l.Handle(bad); err == nil {
				t.Fatalf("leader accepted mutated AuthAckKey (trial %d)", trial)
			}
		}
		if _, err := l.Handle(keyAck); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMutatedAdminFramesRejected fuzzes the connected phase.
func TestMutatedAdminFramesRejected(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	m, l := newPair(t)
	handshake(t, m, l)

	for round := 0; round < 30; round++ {
		envp, err := l.Send(wire.Joined("x"))
		if err != nil {
			t.Fatal(err)
		}
		// Mutations of the genuine AdminMsg must all be rejected.
		for i := 0; i < 20; i++ {
			bad := mutate(r, *envp)
			if bad.Type == envp.Type && string(bad.Payload) == string(envp.Payload) && bad.Sender == envp.Sender {
				continue
			}
			before := memberSnapshot(m)
			if _, err := m.Handle(bad); err == nil {
				t.Fatalf("member accepted mutated AdminMsg (round %d)", round)
			}
			if memberSnapshot(m) != before {
				t.Fatal("rejected frame changed member state")
			}
		}
		// The genuine one still works afterwards.
		mev, err := m.Handle(*envp)
		if err != nil {
			t.Fatalf("genuine AdminMsg rejected after fuzzing: %v", err)
		}
		// Mutations of the genuine Ack must all be rejected.
		for i := 0; i < 20; i++ {
			bad := mutate(r, *mev.Reply)
			if bad.Type == mev.Reply.Type && string(bad.Payload) == string(mev.Reply.Payload) && bad.Sender == mev.Reply.Sender {
				continue
			}
			if _, err := l.Handle(bad); err == nil {
				t.Fatalf("leader accepted mutated Ack (round %d)", round)
			}
		}
		if _, err := l.Handle(*mev.Reply); err != nil {
			t.Fatalf("genuine Ack rejected after fuzzing: %v", err)
		}
	}
	if m.Accepted() != 30 {
		t.Errorf("accepted = %d, want 30", m.Accepted())
	}
}

// TestRandomGarbageNeverPanics drives both engines with completely random
// frames through a full session's phases.
func TestRandomGarbageNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	m, l := newPair(t)
	garbage := func() wire.Envelope {
		payload := make([]byte, r.Intn(200))
		r.Read(payload)
		return wire.Envelope{
			Type:     wire.Type(r.Intn(30)),
			Sender:   "x",
			Receiver: "y",
			Payload:  payload,
		}
	}
	spray := func() {
		for i := 0; i < 100; i++ {
			_, _ = m.Handle(garbage())
			_, _ = l.Handle(garbage())
		}
	}
	spray()
	initReq, _ := m.Start()
	spray()
	lev, err := l.Handle(initReq)
	if err != nil {
		t.Fatal(err)
	}
	spray()
	mev, err := m.Handle(*lev.Reply)
	if err != nil {
		t.Fatal(err)
	}
	spray()
	if _, err := l.Handle(*mev.Reply); err != nil {
		t.Fatal(err)
	}
	spray()
	if m.Phase() != MemberConnected || l.Phase() != LeaderConnected {
		t.Error("garbage disturbed the session")
	}
}

// TestForgeryUnderDerivedKeysRejected tries systematic forgeries under keys
// related to (but distinct from) the session's.
func TestForgeryUnderDerivedKeysRejected(t *testing.T) {
	m, l := newPair(t)
	handshake(t, m, l)

	otherLongTerm := crypto.DeriveKey(testUser, testLeader, "other password")
	randomKey, _ := crypto.NewKey()
	for _, k := range []crypto.Key{otherLongTerm, randomKey} {
		env := wire.Envelope{Type: wire.TypeAdminMsg, Sender: testLeader, Receiver: testUser}
		p, _ := wire.AdminMsgPayload{Leader: testLeader, User: testUser, Seq: 1, Body: wire.Left("bob")}.Marshal()
		box, err := crypto.SealPlaintext(k, p, env.Header())
		if err != nil {
			t.Fatal(err)
		}
		env.Payload = box
		if _, err := m.Handle(env); err == nil {
			t.Error("member accepted forgery under unrelated key")
		}
		closeEnv := wire.Envelope{Type: wire.TypeReqClose, Sender: testUser, Receiver: testLeader}
		box, err = crypto.Seal(k, wire.ClosePayload{User: testUser, Leader: testLeader}.Marshal(), closeEnv.Header())
		if err != nil {
			t.Fatal(err)
		}
		closeEnv.Payload = box
		if _, err := l.Handle(closeEnv); err == nil {
			t.Error("leader accepted close under unrelated key")
		}
	}
	if l.Phase() != LeaderConnected || m.Phase() != MemberConnected {
		t.Error("forgeries disturbed the session")
	}
}
