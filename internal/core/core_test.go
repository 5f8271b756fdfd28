package core

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"enclaves/internal/crypto"
	"enclaves/internal/wire"
)

const (
	testUser   = "alice"
	testLeader = "leader"
)

func newPair(t *testing.T) (*MemberSession, *LeaderSession) {
	t.Helper()
	longTerm := crypto.DeriveKey(testUser, testLeader, "correct horse battery")
	m, err := NewMemberSession(testUser, testLeader, longTerm)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLeaderSession(testLeader, testUser, longTerm)
	if err != nil {
		t.Fatal(err)
	}
	return m, l
}

// handshake drives the three-message join to completion and returns the
// exchanged envelopes for replay tests.
func handshake(t *testing.T, m *MemberSession, l *LeaderSession) (initReq, keyDist, keyAck wire.Envelope) {
	t.Helper()
	initReq, err := m.Start()
	if err != nil {
		t.Fatal(err)
	}
	lev, err := l.Handle(initReq)
	if err != nil {
		t.Fatal(err)
	}
	if lev.Reply == nil || lev.Reply.Type != wire.TypeAuthKeyDist {
		t.Fatalf("leader reply = %v", lev.Reply)
	}
	keyDist = *lev.Reply
	mev, err := m.Handle(keyDist)
	if err != nil {
		t.Fatal(err)
	}
	if !mev.Connected || mev.Reply == nil || mev.Reply.Type != wire.TypeAuthAckKey {
		t.Fatalf("member event = %+v", mev)
	}
	keyAck = *mev.Reply
	lev, err = l.Handle(keyAck)
	if err != nil {
		t.Fatal(err)
	}
	if !lev.Accepted {
		t.Fatal("leader did not accept the member")
	}
	return initReq, keyDist, keyAck
}

// adminRound delivers one admin body end to end and returns the AdminMsg
// envelope.
func adminRound(t *testing.T, m *MemberSession, l *LeaderSession, body wire.AdminBody) wire.Envelope {
	t.Helper()
	envp, err := l.Send(body)
	if err != nil {
		t.Fatal(err)
	}
	if envp == nil {
		t.Fatal("Send did not emit an AdminMsg with a free pipeline")
	}
	mev, err := m.Handle(*envp)
	if err != nil {
		t.Fatal(err)
	}
	if mev.Admin == nil || mev.Reply == nil {
		t.Fatalf("member event = %+v", mev)
	}
	lev, err := l.Handle(*mev.Reply)
	if err != nil {
		t.Fatal(err)
	}
	if !lev.Acked {
		t.Fatal("leader did not register the ack")
	}
	return *envp
}

func TestHandshake(t *testing.T) {
	m, l := newPair(t)
	handshake(t, m, l)
	if m.Phase() != MemberConnected {
		t.Errorf("member phase = %s", m.Phase())
	}
	if l.Phase() != LeaderConnected {
		t.Errorf("leader phase = %s", l.Phase())
	}
	if !m.SessionKey().Equal(l.SessionKey()) {
		t.Error("session keys disagree after handshake")
	}
}

func TestHandshakeFreshKeysPerSession(t *testing.T) {
	m1, l1 := newPair(t)
	handshake(t, m1, l1)
	m2, l2 := newPair(t)
	handshake(t, m2, l2)
	if m1.SessionKey().Equal(m2.SessionKey()) {
		t.Error("two sessions share a session key")
	}
}

func TestAdminDelivery(t *testing.T) {
	m, l := newPair(t)
	handshake(t, m, l)

	envp, err := l.Send(wire.Joined("bob"))
	if err != nil {
		t.Fatal(err)
	}
	mev, err := m.Handle(*envp)
	if err != nil {
		t.Fatal(err)
	}
	if got := mev.Admin.String(); got != wire.Joined("bob").String() {
		t.Fatalf("admin body = %v", mev.Admin)
	}
	if mev.Seq != 1 {
		t.Errorf("seq = %d, want 1", mev.Seq)
	}
	lev, err := l.Handle(*mev.Reply)
	if err != nil {
		t.Fatal(err)
	}
	if !lev.Acked || lev.AckedSeq != 1 {
		t.Errorf("leader ack event = %+v", lev)
	}
	if m.Accepted() != 1 {
		t.Errorf("member accepted count = %d", m.Accepted())
	}
}

// TestAdminPipelineOrder: one AdminMsg is outstanding at a time and bodies
// drain in order, one per ack. Notices queued behind the outstanding one
// fold into a single body, so four bodies (a notice out, two notices and a
// heartbeat queued) leave two pending: the folded notices, then the
// heartbeat.
func TestAdminPipelineOrder(t *testing.T) {
	m, l := newPair(t)
	handshake(t, m, l)

	first, err := l.Send(wire.Joined("m1"))
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []wire.AdminBody{wire.Joined("m2"), wire.Left("m3"), wire.Heartbeat{}} {
		envp, err := l.Send(body)
		if err != nil {
			t.Fatal(err)
		}
		if envp != nil {
			t.Fatal("pipeline emitted a second outstanding AdminMsg")
		}
	}
	if l.PendingAdmin() != 2 {
		t.Fatalf("pending = %d, want 2", l.PendingAdmin())
	}

	// Drain: each ack releases the next message, in order.
	env := first
	for i, want := range []string{"MemberChanges[+m1]", "MemberChanges[+m2 -m3]", "Heartbeat()"} {
		mev, err := m.Handle(*env)
		if err != nil {
			t.Fatalf("admin %d: %v", i, err)
		}
		if got := mev.Admin.String(); got != want {
			t.Fatalf("admin %d: got %s want %s", i, got, want)
		}
		lev, err := l.Handle(*mev.Reply)
		if err != nil {
			t.Fatal(err)
		}
		env = lev.Reply // next drained AdminMsg (nil after the last)
	}
	if env != nil {
		t.Error("pipeline emitted an extra message")
	}
	if m.Accepted() != 3 {
		t.Errorf("accepted = %d, want 3", m.Accepted())
	}
}

// TestNonceChainFresh opens every message of a join and 16 AdminMsg/Ack
// rounds: no fresh nonce either side seals repeats, and each is the value
// the other side's next message echoes, which the sealing side accepts.
func TestNonceChainFresh(t *testing.T) {
	m, l := newPair(t)
	longTerm := crypto.DeriveKey(testUser, testLeader, "correct horse battery")
	initReq, keyDist, keyAck := handshake(t, m, l)
	open := func(k crypto.Key, env wire.Envelope) []byte {
		t.Helper()
		plain, err := crypto.Open(k, env.Payload, env.Header())
		if err != nil {
			t.Fatalf("%s: %v", env.Type, err)
		}
		return plain
	}
	sealer := map[crypto.Nonce]string{}
	var last crypto.Nonce // the fresh value the next message must echo
	chain := func(name string, echo, fresh crypto.Nonce, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if echo != last {
			t.Errorf("%s echoes %v, want %v", name, echo, last)
		}
		if prev, dup := sealer[fresh]; dup {
			t.Errorf("%s seals %v, which %s sealed", name, fresh, prev)
		}
		sealer[fresh], last = name, fresh
	}
	ai, err := wire.UnmarshalAuthInit(open(longTerm, initReq))
	chain("AuthInit", last, ai.N1, err)
	kd, err := wire.UnmarshalAuthKeyDist(open(longTerm, keyDist))
	chain("AuthKeyDist", kd.N1, kd.N2, err)
	ka, err := wire.UnmarshalAck(open(m.SessionKey(), keyAck))
	chain("AuthAckKey", ka.NPrev, ka.NNext, err)
	for i := range 16 {
		envp, err := l.Send(wire.Heartbeat{})
		if err != nil || envp == nil {
			t.Fatalf("round %d: Send = %v, %v", i, envp, err)
		}
		adm, err := wire.UnmarshalAdminMsg(open(m.SessionKey(), *envp))
		chain(fmt.Sprintf("AdminMsg %d", i), adm.NPrev, adm.NNext, err)
		mev, err := m.Handle(*envp)
		if err != nil || mev.Reply == nil {
			t.Fatalf("round %d: member event %+v, %v", i, mev, err)
		}
		ack, err := wire.UnmarshalAck(open(m.SessionKey(), *mev.Reply))
		chain(fmt.Sprintf("Ack %d", i), ack.NPrev, ack.NNext, err)
		if lev, err := l.Handle(*mev.Reply); err != nil || !lev.Acked {
			t.Fatalf("round %d: leader event %+v, %v", i, lev, err)
		}
	}
	if len(sealer) != 3+2*16 {
		t.Errorf("%d distinct fresh nonces, want %d", len(sealer), 3+2*16)
	}
}

// TestNoticesFoldBehindAck: 200 notices behind one outstanding AdminMsg
// leave ceil(200/64) pending bodies whose flattened changes are the 200 in
// send order; a key body queued between notices ends the fold, so the
// notices after it start a new body. Folding never writes into the array
// of a body the caller still holds (a broadcast shares one per member).
func TestNoticesFoldBehindAck(t *testing.T) {
	m, l := newPair(t)
	handshake(t, m, l)
	env, err := l.Send(wire.Heartbeat{})
	if err != nil || env == nil {
		t.Fatalf("first Send: %v, %v", env, err)
	}

	const n = 200
	var want []wire.MemberChange
	var sent [][]wire.MemberChange
	for i := 0; i < n; i++ {
		c := wire.MemberChange{Name: fmt.Sprintf("m%d", i), Left: i%3 == 0}
		want = append(want, c)
		changes := append(make([]wire.MemberChange, 0, 8), c) // spare capacity a fold must not use
		sent = append(sent, changes)
		if _, err := l.Send(wire.MemberChanges{Changes: changes}); err != nil {
			t.Fatal(err)
		}
	}
	for _, changes := range sent {
		if changes[:2][1] != (wire.MemberChange{}) {
			t.Fatal("a fold appended into the caller's array")
		}
	}
	if got, wantN := l.PendingAdmin(), (n+wire.MaxDeltaNames-1)/wire.MaxDeltaNames; got != wantN {
		t.Fatalf("pending = %d after %d notices, want %d", got, n, wantN)
	}
	key, err := crypto.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []wire.AdminBody{wire.NewGroupKey{Epoch: 2, Key: key}, wire.Joined("after"), wire.Heartbeat{}} {
		if _, err := l.Send(body); err != nil {
			t.Fatal(err)
		}
	}
	want = append(want, wire.MemberChange{Name: "after"})
	if got := l.PendingAdmin(); got != 7 {
		t.Fatalf("pending = %d after a key, one more notice and a heartbeat, want 7", got)
	}

	var got []wire.MemberChange
	var bodies []string
	for env != nil {
		mev, err := m.Handle(*env)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, mev.Admin.AdminKind().String())
		if mc, ok := mev.Admin.(wire.MemberChanges); ok {
			got = append(got, mc.Changes...)
		}
		lev, err := l.Handle(*mev.Reply)
		if err != nil {
			t.Fatal(err)
		}
		env = lev.Reply
	}
	if !slices.Equal(got, want) {
		t.Errorf("flattened changes differ from the order sent:\n got %v\nwant %v", got, want)
	}
	wantBodies := []string{"Heartbeat", "MemberChanges", "MemberChanges", "MemberChanges", "MemberChanges", "NewGroupKey", "MemberChanges", "Heartbeat"}
	if !slices.Equal(bodies, wantBodies) {
		t.Errorf("bodies = %v, want %v", bodies, wantBodies)
	}
}

// TestKeysFoldBehindAck: k keys behind one outstanding AdminMsg leave one
// pending NewGroupKey with the newest epoch and key and the k keys' changes
// in send order, without writing into any caller's array. A MemberList or a
// notice queued between keys ends the fold, so the member gets the keys on
// either side of it, and no folded key names more than wire.MaxDeltaNames
// changes.
func TestKeysFoldBehindAck(t *testing.T) {
	m, l := newPair(t)
	handshake(t, m, l)
	env, err := l.Send(wire.Heartbeat{})
	if err != nil || env == nil {
		t.Fatalf("first Send: %v, %v", env, err)
	}
	keys := make([]crypto.Key, 8)
	for i := range keys {
		if keys[i], err = crypto.NewKey(); err != nil {
			t.Fatal(err)
		}
	}
	ngk := func(epoch uint64, c wire.MemberChange) wire.NewGroupKey {
		changes := append(make([]wire.MemberChange, 0, 4), c) // spare capacity a fold must not use
		return wire.NewGroupKey{Epoch: epoch, Key: keys[epoch], Changes: changes}
	}
	var sent []wire.NewGroupKey
	for e := uint64(1); e <= 4; e++ {
		sent = append(sent, ngk(e, wire.MemberChange{Name: fmt.Sprintf("m%d", e), Left: e%2 == 0}))
	}
	bodies := []wire.AdminBody{sent[0], sent[1], sent[2], sent[3],
		wire.MemberList{Names: []string{"a"}}, ngk(5, wire.MemberChange{Name: "x"}),
		wire.Joined("y"), ngk(6, wire.MemberChange{Name: "z"}), ngk(7, wire.MemberChange{Name: "x", Left: true})}
	for _, b := range bodies {
		if _, err := l.Send(b); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range sent {
		if b.Changes[:2][1] != (wire.MemberChange{}) {
			t.Fatal("a fold appended into the caller's array")
		}
	}
	want := []string{
		"Heartbeat()",
		wire.NewGroupKey{Epoch: 4, Key: keys[4], Changes: []wire.MemberChange{
			{Name: "m1"}, {Name: "m2", Left: true}, {Name: "m3"}, {Name: "m4", Left: true}}}.String(),
		"MemberList(a)",
		wire.NewGroupKey{Epoch: 5, Key: keys[5], Changes: []wire.MemberChange{{Name: "x"}}}.String(),
		"MemberChanges[+y]",
		wire.NewGroupKey{Epoch: 7, Key: keys[7], Changes: []wire.MemberChange{{Name: "z"}, {Name: "x", Left: true}}}.String(),
	}
	if got := l.PendingAdmin(); got != len(want)-1 {
		t.Fatalf("pending = %d, want %d", got, len(want)-1)
	}
	var got []string
	for env != nil {
		mev, err := m.Handle(*env)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, mev.Admin.String())
		lev, err := l.Handle(*mev.Reply)
		if err != nil {
			t.Fatal(err)
		}
		env = lev.Reply
	}
	if !slices.Equal(got, want) {
		t.Errorf("member received\n %v\nwant\n %v", got, want)
	}

	// The fold stops at wire.MaxDeltaNames changes.
	if env, err := l.Send(wire.Heartbeat{}); err != nil || env == nil {
		t.Fatalf("Send on an idle pipeline: %v, %v", env, err)
	}
	const n = 2*wire.MaxDeltaNames + 2
	for e := uint64(1); e <= n; e++ {
		if _, err := l.Send(ngk(e%8, wire.MemberChange{Name: "m"})); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.PendingAdmin(); got != 3 {
		t.Errorf("pending = %d after %d one-change keys, want 3", got, n)
	}
}

// TestKeyBoxesFoldBehindAck: LKH key bodies behind one outstanding AdminMsg
// fold as keys do, and their boxes newest-wins per node: the member gets
// one body with the newest epoch, every change in send order, the older
// boxes to nodes no later rotation rotated again, then the newest
// rotation's boxes, so every box comes after the box that seals its Under.
// No fold writes into a caller's array, and the fold stops at
// wire.MaxDeltaNames changes or wire.MaxPathEntries boxes.
func TestKeyBoxesFoldBehindAck(t *testing.T) {
	m, l := newPair(t)
	handshake(t, m, l)
	env, err := l.Send(wire.Heartbeat{})
	if err != nil || env == nil {
		t.Fatalf("first Send: %v, %v", env, err)
	}
	// The member's path: leaf 10 under node 5 under node 2 under root 1.
	box := func(node, ver, under uint64, epoch uint64) wire.KeyBox {
		return wire.KeyBox{Node: node, Ver: ver, Under: under, Epoch: epoch, Root: node == 1, Box: []byte{byte(node), byte(ver)}}
	}
	body := func(epoch uint64, c wire.MemberChange, boxes ...wire.KeyBox) wire.KeyBoxes {
		// Spare capacity a fold must not use.
		return wire.KeyBoxes{Epoch: epoch, Changes: append(make([]wire.MemberChange, 0, 4), c),
			Boxes: append(make([]wire.KeyBox, 0, 8), boxes...)}
	}
	sent := []wire.KeyBoxes{
		body(2, wire.MemberChange{Name: "a"}, box(5, 1, 10, 2), box(2, 1, 5, 2), box(1, 1, 2, 2)),
		body(3, wire.MemberChange{Name: "b", Left: true}, box(2, 2, 5, 3), box(1, 2, 2, 3)),
		body(4, wire.MemberChange{Name: "c"}, box(1, 3, 2, 4)),
	}
	var kept []wire.KeyBoxes
	for _, b := range sent {
		kept = append(kept, wire.KeyBoxes{Epoch: b.Epoch, Changes: slices.Clone(b.Changes), Boxes: slices.Clone(b.Boxes)})
		if _, err := l.Send(b); err != nil {
			t.Fatal(err)
		}
	}
	for i, b := range sent {
		if !slices.Equal(b.Changes[:cap(b.Changes)][1:], make([]wire.MemberChange, cap(b.Changes)-1)) ||
			!reflect.DeepEqual(b.Boxes, kept[i].Boxes) ||
			!reflect.DeepEqual(b.Boxes[:cap(b.Boxes)][len(b.Boxes):], make([]wire.KeyBox, cap(b.Boxes)-len(b.Boxes))) {
			t.Fatal("a fold wrote into the caller's array")
		}
	}
	if got := l.PendingAdmin(); got != 1 {
		t.Fatalf("pending = %d after three key bodies, want 1", got)
	}
	if got := l.PendingBoxes(); got != 3 {
		t.Fatalf("pending boxes = %d, want 3 (one per path node)", got)
	}
	want := wire.KeyBoxes{Epoch: 4,
		Changes: []wire.MemberChange{{Name: "a"}, {Name: "b", Left: true}, {Name: "c"}},
		Boxes:   []wire.KeyBox{box(5, 1, 10, 2), box(2, 2, 5, 3), box(1, 3, 2, 4)}}
	var got []wire.AdminBody
	for env != nil {
		mev, err := m.Handle(*env)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, mev.Admin)
		lev, err := l.Handle(*mev.Reply)
		if err != nil {
			t.Fatal(err)
		}
		env = lev.Reply
	}
	if len(got) != 2 || !reflect.DeepEqual(got[1], want) {
		t.Fatalf("member received %v, want a heartbeat then\n %+v", got, want)
	}
	for i, b := range want.Boxes {
		if j := slices.IndexFunc(got[1].(wire.KeyBoxes).Boxes, func(o wire.KeyBox) bool { return o.Node == b.Under }); j >= i {
			t.Errorf("box %d (node %d) comes before the box to node %d that seals it", i, b.Node, b.Under)
		}
	}

	// The fold stops at wire.MaxDeltaNames changes and at
	// wire.MaxPathEntries boxes.
	if env, err := l.Send(wire.Heartbeat{}); err != nil || env == nil {
		t.Fatalf("Send on an idle pipeline: %v, %v", env, err)
	}
	const n = 2*wire.MaxDeltaNames + 2
	for e := uint64(1); e <= n; e++ {
		if _, err := l.Send(body(e, wire.MemberChange{Name: "m"}, box(1, e, 2, e))); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.PendingAdmin(); got != 3 {
		t.Errorf("pending = %d after %d one-change key bodies, want 3", got, n)
	}
	wide := func(from uint64) wire.KeyBoxes {
		b := wire.KeyBoxes{Epoch: n + from}
		for i := range uint64(wire.MaxPathEntries/2 + 1) {
			b.Boxes = append(b.Boxes, box(from+i, 1, 0, n+from))
		}
		return b
	}
	for _, b := range []wire.KeyBoxes{wide(1000), wide(2000)} {
		if _, err := l.Send(b); err != nil {
			t.Fatal(err)
		}
	}
	// The first folds into the tail's one box; the second would pass the
	// bound.
	if got := l.PendingAdmin(); got != 4 {
		t.Errorf("pending = %d after two key bodies of %d boxes each, want 4", got, wire.MaxPathEntries/2+1)
	}
}

func TestSendBeforeAcceptanceQueues(t *testing.T) {
	m, l := newPair(t)
	initReq, _ := m.Start()
	lev, _ := l.Handle(initReq)

	// Queue while waiting for the key ack.
	envp, err := l.Send(wire.Joined("early"))
	if err != nil {
		t.Fatal(err)
	}
	if envp != nil {
		t.Fatal("AdminMsg emitted before the member was accepted")
	}

	mev, _ := m.Handle(*lev.Reply)
	lev2, err := l.Handle(*mev.Reply)
	if err != nil {
		t.Fatal(err)
	}
	if !lev2.Accepted || lev2.Reply == nil || lev2.Reply.Type != wire.TypeAdminMsg {
		t.Fatalf("queued AdminMsg not drained on acceptance: %+v", lev2)
	}
	mev2, err := m.Handle(*lev2.Reply)
	if err != nil {
		t.Fatal(err)
	}
	if mev2.Admin.String() != wire.Joined("early").String() {
		t.Errorf("admin = %v", mev2.Admin)
	}
}

func TestAdminReplayRejected(t *testing.T) {
	m, l := newPair(t)
	handshake(t, m, l)
	adminEnv := adminRound(t, m, l, wire.Joined("bob"))

	// Replaying the captured AdminMsg must fail the freshness check.
	if _, err := m.Handle(adminEnv); !errors.Is(err, ErrFreshness) {
		t.Errorf("replay accepted: err = %v, want ErrFreshness", err)
	}
	if m.Accepted() != 1 {
		t.Errorf("accepted advanced on replay: %d", m.Accepted())
	}
}

func TestAckReplayRejected(t *testing.T) {
	m, l := newPair(t)
	handshake(t, m, l)

	envp, _ := l.Send(wire.Joined("bob"))
	mev, _ := m.Handle(*envp)
	if _, err := l.Handle(*mev.Reply); err != nil {
		t.Fatal(err)
	}
	// Send another admin so the leader is waiting again, then replay the
	// old ack: its NPrev no longer matches the leader's nonce.
	if _, err := l.Send(wire.Joined("carol")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Handle(*mev.Reply); !errors.Is(err, ErrFreshness) {
		t.Errorf("stale ack accepted: err = %v", err)
	}
}

func TestKeyDistReplayAcrossSessionsRejected(t *testing.T) {
	longTerm := crypto.DeriveKey(testUser, testLeader, "pw")
	m1, _ := NewMemberSession(testUser, testLeader, longTerm)
	l1, _ := NewLeaderSession(testLeader, testUser, longTerm)
	init1, _ := m1.Start()
	lev1, _ := l1.Handle(init1)
	keyDist1 := *lev1.Reply

	// A second session: the stale key distribution echoes the OLD N1 and
	// must be rejected by the new session.
	m2, _ := NewMemberSession(testUser, testLeader, longTerm)
	if _, err := m2.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Handle(keyDist1); !errors.Is(err, ErrFreshness) {
		t.Errorf("stale AuthKeyDist accepted: err = %v", err)
	}
}

func TestForgedAdminRejected(t *testing.T) {
	m, l := newPair(t)
	handshake(t, m, l)

	// Forge an AdminMsg under a key the attacker controls.
	evilKey, _ := crypto.NewKey()
	env := wire.Envelope{Type: wire.TypeAdminMsg, Sender: testLeader, Receiver: testUser}
	p, _ := wire.AdminMsgPayload{Leader: testLeader, User: testUser, Seq: 9, Body: wire.Left("bob")}.Marshal()
	box, _ := crypto.SealPlaintext(evilKey, p, env.Header())
	env.Payload = box
	if _, err := m.Handle(env); !errors.Is(err, ErrAuth) {
		t.Errorf("forged AdminMsg accepted: err = %v", err)
	}
	_ = l
}

func TestRelabeledEnvelopeRejected(t *testing.T) {
	m, l := newPair(t)
	initReq, _ := m.Start()
	lev, _ := l.Handle(initReq)

	// Relabel the AuthKeyDist as an AdminMsg: the AEAD header binding must
	// reject it even before state checks could confuse it.
	relabeled := *lev.Reply
	relabeled.Type = wire.TypeAdminMsg
	if _, err := m.Handle(relabeled); !errors.Is(err, ErrState) && !errors.Is(err, ErrAuth) {
		t.Errorf("relabeled envelope: err = %v", err)
	}
	// Proper delivery still works afterwards.
	if _, err := m.Handle(*lev.Reply); err != nil {
		t.Errorf("genuine delivery after rejection: %v", err)
	}
}

func TestTamperedPayloadRejected(t *testing.T) {
	m, l := newPair(t)
	initReq, _ := m.Start()
	lev, _ := l.Handle(initReq)
	tampered := *lev.Reply
	tampered.Payload = append([]byte(nil), tampered.Payload...)
	tampered.Payload[len(tampered.Payload)/2] ^= 0x40
	if _, err := m.Handle(tampered); !errors.Is(err, ErrAuth) {
		t.Errorf("tampered payload: err = %v", err)
	}
}

func TestWrongPasswordCannotJoin(t *testing.T) {
	goodKey := crypto.DeriveKey(testUser, testLeader, "right")
	badKey := crypto.DeriveKey(testUser, testLeader, "wrong")
	m, _ := NewMemberSession(testUser, testLeader, badKey)
	l, _ := NewLeaderSession(testLeader, testUser, goodKey)
	initReq, _ := m.Start()
	if _, err := l.Handle(initReq); !errors.Is(err, ErrAuth) {
		t.Errorf("wrong password accepted: err = %v", err)
	}
}

func TestIdentityMismatchRejected(t *testing.T) {
	// The leader session is for "mallory" but the encrypted payload names
	// alice: the identity check (not just the key) must fire. Use the same
	// long-term key for both to isolate the identity check.
	shared, _ := crypto.NewKey()
	m, _ := NewMemberSession(testUser, testLeader, shared)
	l, _ := NewLeaderSession(testLeader, "mallory", shared)
	initReq, _ := m.Start()
	// Rewrite the envelope header to mallory so the AEAD check passes...
	// it will not, because the header is bound. Instead craft the envelope
	// as mallory would see it delivered: header must match what was
	// sealed, so leader's Open succeeds only with the original header, and
	// then the encrypted identity check fires.
	if _, err := l.Handle(initReq); !errors.Is(err, ErrAuth) && !errors.Is(err, ErrIdentity) {
		t.Errorf("identity mismatch: err = %v", err)
	}
}

func TestLeaveAndClose(t *testing.T) {
	m, l := newPair(t)
	handshake(t, m, l)
	closeEnv, err := m.Leave()
	if err != nil {
		t.Fatal(err)
	}
	if m.Phase() != MemberClosed {
		t.Errorf("member phase = %s", m.Phase())
	}
	if m.SessionKey().Valid() {
		t.Error("member session key not zeroized on leave")
	}
	lev, err := l.Handle(closeEnv)
	if err != nil {
		t.Fatal(err)
	}
	if !lev.Closed || l.Phase() != LeaderClosed {
		t.Errorf("leader did not close: %+v phase=%s", lev, l.Phase())
	}
	if l.SessionKey().Valid() {
		t.Error("leader session key not zeroized on close")
	}
}

func TestSendAfterCloseFails(t *testing.T) {
	m, l := newPair(t)
	handshake(t, m, l)
	closeEnv, _ := m.Leave()
	if _, err := l.Handle(closeEnv); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Send(wire.Joined("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("Send after close: err = %v", err)
	}
}

func TestCloseReplayDoesNothing(t *testing.T) {
	m, l := newPair(t)
	handshake(t, m, l)
	closeEnv, _ := m.Leave()
	if _, err := l.Handle(closeEnv); err != nil {
		t.Fatal(err)
	}
	// Replaying the close against the closed session is a state error; the
	// session key is gone so nothing can be derived from it.
	if _, err := l.Handle(closeEnv); !errors.Is(err, ErrState) {
		t.Errorf("close replay: err = %v", err)
	}
}

func TestCloseCannotCrossSessions(t *testing.T) {
	longTerm := crypto.DeriveKey(testUser, testLeader, "pw")

	// Session 1 completes and closes; capture its ReqClose.
	m1, _ := NewMemberSession(testUser, testLeader, longTerm)
	l1, _ := NewLeaderSession(testLeader, testUser, longTerm)
	handshake(t, m1, l1)
	close1, _ := m1.Leave()
	if _, err := l1.Handle(close1); err != nil {
		t.Fatal(err)
	}

	// Session 2 is fresh; the captured close is under the old key.
	m2, _ := NewMemberSession(testUser, testLeader, longTerm)
	l2, _ := NewLeaderSession(testLeader, testUser, longTerm)
	handshake(t, m2, l2)
	if _, err := l2.Handle(close1); !errors.Is(err, ErrAuth) {
		t.Errorf("cross-session close accepted: err = %v", err)
	}
	if l2.Phase() != LeaderConnected {
		t.Errorf("leader phase changed on rejected close: %s", l2.Phase())
	}
}

func TestStateErrors(t *testing.T) {
	m, l := newPair(t)

	// Member: admin before handshake.
	env := wire.Envelope{Type: wire.TypeAdminMsg, Payload: []byte("x")}
	if _, err := m.Handle(env); !errors.Is(err, ErrState) {
		t.Errorf("admin in NotConnected: %v", err)
	}
	// Member: leave before connected.
	if _, err := m.Leave(); !errors.Is(err, ErrState) {
		t.Errorf("leave in NotConnected: %v", err)
	}
	// Leader: ack before handshake.
	if _, err := l.Handle(wire.Envelope{Type: wire.TypeAck, Payload: []byte("x")}); !errors.Is(err, ErrState) {
		t.Errorf("ack in Idle: %v", err)
	}
	// Leader: close before handshake.
	if _, err := l.Handle(wire.Envelope{Type: wire.TypeReqClose, Payload: []byte("x")}); !errors.Is(err, ErrState) {
		t.Errorf("close in Idle: %v", err)
	}
	// Unknown types.
	if _, err := m.Handle(wire.Envelope{Type: wire.TypeAppData}); !errors.Is(err, ErrState) {
		t.Errorf("app data to member engine: %v", err)
	}
	if _, err := l.Handle(wire.Envelope{Type: wire.TypeAppData}); !errors.Is(err, ErrState) {
		t.Errorf("app data to leader engine: %v", err)
	}

	// Double Start.
	if _, err := m.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Start(); !errors.Is(err, ErrState) {
		t.Errorf("double Start: %v", err)
	}
}

func TestConstructorValidation(t *testing.T) {
	k, _ := crypto.NewKey()
	if _, err := NewMemberSession("", testLeader, k); err == nil {
		t.Error("empty user accepted")
	}
	if _, err := NewMemberSession(testUser, "", k); err == nil {
		t.Error("empty leader accepted")
	}
	if _, err := NewMemberSession(testUser, testLeader, crypto.Key{}); err == nil {
		t.Error("invalid key accepted")
	}
	if _, err := NewLeaderSession("", testUser, k); err == nil {
		t.Error("empty leader accepted")
	}
	if _, err := NewLeaderSession(testLeader, testUser, crypto.Key{}); err == nil {
		t.Error("invalid key accepted")
	}
}

func TestPhaseStrings(t *testing.T) {
	if MemberWaitingForKey.String() != "WaitingForKey" || LeaderWaitingForAck.String() != "WaitingForAck" {
		t.Error("phase names wrong")
	}
}

// TestInterleavedSessionsIndependent runs two member/leader pairs in
// lockstep and checks that messages cannot cross between them.
func TestInterleavedSessionsIndependent(t *testing.T) {
	ltA := crypto.DeriveKey("alice", testLeader, "pa")
	ltB := crypto.DeriveKey("bob", testLeader, "pb")
	ma, _ := NewMemberSession("alice", testLeader, ltA)
	la, _ := NewLeaderSession(testLeader, "alice", ltA)
	mb, _ := NewMemberSession("bob", testLeader, ltB)
	lb, _ := NewLeaderSession(testLeader, "bob", ltB)

	initA, _ := ma.Start()
	initB, _ := mb.Start()

	// Cross-delivery must fail: bob's request to alice's leader session.
	if _, err := la.Handle(initB); !errors.Is(err, ErrAuth) {
		t.Errorf("cross-user init accepted: %v", err)
	}

	levA, _ := la.Handle(initA)
	levB, _ := lb.Handle(initB)

	// Cross key distributions must fail.
	if _, err := ma.Handle(*levB.Reply); !errors.Is(err, ErrAuth) {
		t.Errorf("cross key dist accepted: %v", err)
	}
	mevA, err := ma.Handle(*levA.Reply)
	if err != nil {
		t.Fatal(err)
	}
	mevB, err := mb.Handle(*levB.Reply)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := la.Handle(*mevB.Reply); !errors.Is(err, ErrAuth) {
		t.Errorf("cross key ack accepted: %v", err)
	}
	if _, err := la.Handle(*mevA.Reply); err != nil {
		t.Fatal(err)
	}
	if _, err := lb.Handle(*mevB.Reply); err != nil {
		t.Fatal(err)
	}
}
