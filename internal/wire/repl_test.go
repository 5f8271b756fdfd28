package wire

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"enclaves/internal/crypto"
)

func TestReplStateHelloRoundTrip(t *testing.T) {
	in := ReplStatePayload{Hello: true, Standby: "standby", Primary: "leader"}
	data, next := opened(in.Marshal())
	out, err := UnmarshalReplState(data)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Hello || out.Standby != in.Standby || out.Primary != in.Primary || !out.Next.Equal(next) {
		t.Fatalf("round trip changed hello: %+v != %+v", out, in)
	}
	if len(out.Members) != 0 || out.Epoch != 0 || out.GroupKey.Valid() {
		t.Fatalf("hello carries snapshot fields: %+v", out)
	}
}

func TestReplStateSnapshotRoundTrip(t *testing.T) {
	in := ReplStatePayload{
		Standby:  "standby",
		Primary:  "leader",
		Echo:     randNonce(),
		Epoch:    42,
		GroupKey: mustKey(t),
		AuditSeq: 1009,
		Members: []ReplMember{
			{User: "alice", SessionKey: mustKey(t), Nonce: randNonce(), Seq: 7},
			{User: "bob", SessionKey: mustKey(t), Nonce: randNonce(), Seq: 0},
			{User: "", SessionKey: mustKey(t)},
		},
	}
	data, next := opened(in.Marshal())
	out, err := UnmarshalReplState(data)
	if err != nil {
		t.Fatal(err)
	}
	if out.Hello || out.Standby != in.Standby || out.Primary != in.Primary ||
		!out.Echo.Equal(in.Echo) || !out.Next.Equal(next) ||
		out.Epoch != in.Epoch || !out.GroupKey.Equal(in.GroupKey) || out.AuditSeq != in.AuditSeq {
		t.Fatalf("round trip changed snapshot: %+v != %+v", out, in)
	}
	if len(out.Members) != len(in.Members) {
		t.Fatalf("member count: %d != %d", len(out.Members), len(in.Members))
	}
	for i, m := range out.Members {
		w := in.Members[i]
		if m.User != w.User || !m.SessionKey.Equal(w.SessionKey) || !m.Nonce.Equal(w.Nonce) || m.Seq != w.Seq {
			t.Fatalf("member %d changed: %+v != %+v", i, m, w)
		}
	}
}

func TestReplStateEmptySnapshotRoundTrip(t *testing.T) {
	in := ReplStatePayload{Standby: "s", Primary: "p", GroupKey: mustKey(t)}
	data, _ := opened(in.Marshal())
	out, err := UnmarshalReplState(data)
	if err != nil {
		t.Fatal(err)
	}
	if out.Hello || len(out.Members) != 0 || !out.GroupKey.Equal(in.GroupKey) {
		t.Fatalf("round trip changed empty snapshot: %+v", out)
	}
}

func TestReplStateRejectsMemberBound(t *testing.T) {
	// Hand-build a snapshot header declaring an absurd member count: it must
	// be rejected on the declared count, before any allocation.
	var b []byte
	b = append(b, 0)
	b = crypto.AppendLenPrefixed(b, "s")
	b = crypto.AppendLenPrefixed(b, "p")
	b = append(b, make([]byte, 2*crypto.NonceSize)...)
	b = binary.BigEndian.AppendUint64(b, 1)                // epoch
	b = append(b, make([]byte, crypto.KeySize)...)         // group key
	b = binary.BigEndian.AppendUint64(b, 0)                // audit seq
	b = binary.BigEndian.AppendUint64(b, MaxReplMembers+1) // member count over the bound
	if _, err := UnmarshalReplState(b); err == nil {
		t.Fatal("snapshot over MaxReplMembers accepted")
	} else if !strings.Contains(err.Error(), "members") {
		t.Fatalf("wrong rejection: %v", err)
	}
}

func replDeltaCases(t *testing.T) []ReplDeltaPayload {
	t.Helper()
	base := ReplDeltaPayload{Primary: "leader", Standby: "standby", Echo: randNonce(), AuditSeq: 33}
	up := base
	up.Kind = ReplMemberUp
	up.User = "alice"
	up.Session = mustKey(t)
	up.Nonce = randNonce()
	up.Seq = 12
	down := base
	down.Kind = ReplMemberDown
	down.User = "bob"
	rekey := base
	rekey.Kind = ReplRekey
	rekey.Epoch = 9
	rekey.GroupKey = mustKey(t)
	sync := base
	sync.Kind = ReplSessionSync
	sync.User = "carol"
	sync.Nonce = randNonce()
	sync.Seq = 99
	ping := base
	ping.Kind = ReplPing
	return []ReplDeltaPayload{up, down, rekey, sync, ping}
}

func TestReplDeltaRoundTrip(t *testing.T) {
	for _, in := range replDeltaCases(t) {
		data, next := opened(in.Marshal())
		out, err := UnmarshalReplDelta(data)
		if err != nil {
			t.Fatalf("%v: %v", in.Kind, err)
		}
		if out.Primary != in.Primary || out.Standby != in.Standby ||
			!out.Echo.Equal(in.Echo) || !out.Next.Equal(next) ||
			out.Kind != in.Kind || out.AuditSeq != in.AuditSeq ||
			out.User != in.User || !out.Session.Equal(in.Session) ||
			!out.Nonce.Equal(in.Nonce) || out.Seq != in.Seq ||
			out.Epoch != in.Epoch || !out.GroupKey.Equal(in.GroupKey) {
			t.Fatalf("%v round trip changed delta:\n got %+v\nwant %+v", in.Kind, out, in)
		}
	}
}

func TestReplDeltaRejectsUnknownKind(t *testing.T) {
	var b []byte
	b = crypto.AppendLenPrefixed(b, "p")
	b = crypto.AppendLenPrefixed(b, "s")
	b = append(b, make([]byte, 2*crypto.NonceSize)...)
	b = append(b, 0) // kind 0 is below every defined ReplDeltaKind
	b = binary.BigEndian.AppendUint64(b, 0)
	if _, err := UnmarshalReplDelta(b); err == nil {
		t.Fatal("delta with kind 0 accepted")
	}
	b[len(b)-9] = uint8(ReplPing) + 1 // one past the last kind
	if _, err := UnmarshalReplDelta(b); err == nil {
		t.Fatal("delta with out-of-range kind accepted")
	}
}

func TestReplPayloadsRejectGarbageAndTrailing(t *testing.T) {
	garbage := [][]byte{nil, {}, {0xFF}, {0x01, 0x02, 0x03}, make([]byte, 7)}
	for _, g := range garbage {
		if _, err := UnmarshalReplState(g); err == nil {
			t.Errorf("ReplState accepted %x", g)
		}
		if _, err := UnmarshalReplDelta(g); err == nil {
			t.Errorf("ReplDelta accepted %x", g)
		}
	}
	hello, _ := opened(ReplStatePayload{Hello: true, Standby: "s", Primary: "p"}.Marshal())
	if _, err := UnmarshalReplState(append(hello, 0)); err == nil {
		t.Error("ReplState hello accepted trailing byte")
	}
	snap, _ := opened(ReplStatePayload{Standby: "s", Primary: "p", GroupKey: mustKey(t)}.Marshal())
	if _, err := UnmarshalReplState(append(snap, 0)); err == nil {
		t.Error("ReplState snapshot accepted trailing byte")
	}
	for _, d := range replDeltaCases(t) {
		data, _ := opened(d.Marshal())
		if _, err := UnmarshalReplDelta(append(data, 0)); err == nil {
			t.Errorf("ReplDelta %v accepted trailing byte", d.Kind)
		}
	}
}

// retiredPendingDelta encodes a delta in the layout of the retired
// pending-rekey delta: kind byte 7, then the armed flag.
func retiredPendingDelta(flag uint8) []byte {
	var b []byte
	b = crypto.AppendLenPrefixed(b, "p")
	b = crypto.AppendLenPrefixed(b, "s")
	b = append(b, make([]byte, 2*crypto.NonceSize)...)
	b = append(b, 7)
	b = binary.BigEndian.AppendUint64(b, 0)
	b = append(b, flag)
	return b
}

// TestReplDeltaKindsArePinned pins the delta kind bytes 1 to 6. Byte 7
// carried the retired rekey-coalescing window's armed flag: the
// decoder rejects it and no kind reuses it.
func TestReplDeltaKindsArePinned(t *testing.T) {
	for b, k := range []ReplDeltaKind{ReplMemberUp, ReplMemberDown, ReplRekey, ReplSessionSync, ReplPing, ReplLKH} {
		if uint8(k) != uint8(b+1) {
			t.Errorf("%s = %d, want %d", k, uint8(k), b+1)
		}
	}
	if name := ReplDeltaKind(7).String(); name != "ReplDeltaKind(7)" {
		t.Errorf("retired delta kind 7 is reused by %s", name)
	}
	for _, flag := range []uint8{0, 1} {
		if d, err := UnmarshalReplDelta(retiredPendingDelta(flag)); !errors.Is(err, ErrBadPayload) {
			t.Errorf("retired delta kind 7 (flag %d) decoded as %+v (err %v)", flag, d, err)
		}
	}
}

func TestReplDeltaKindString(t *testing.T) {
	for _, k := range []ReplDeltaKind{ReplMemberUp, ReplMemberDown, ReplRekey, ReplSessionSync, ReplPing, ReplLKH} {
		if strings.Contains(k.String(), "ReplDeltaKind(") {
			t.Errorf("kind %d has no name", uint8(k))
		}
	}
	if !strings.Contains(ReplDeltaKind(77).String(), "77") {
		t.Error("unknown kind must render its number")
	}
}

// FuzzReplPayloads: the replication unmarshalers must never panic, and any
// payload they accept must re-marshal canonically.
func FuzzReplPayloads(f *testing.F) {
	seedState := []ReplStatePayload{
		{Hello: true, Standby: "standby", Primary: "leader"},
		{Standby: "s", Primary: "p", Epoch: 3, AuditSeq: 8,
			Members: []ReplMember{{User: "alice", Seq: 1}}},
	}
	for _, p := range seedState {
		f.Add(spliced(crypto.Nonce{})(p.Marshal()))
	}
	for _, k := range []ReplDeltaKind{ReplMemberUp, ReplMemberDown, ReplRekey, ReplSessionSync, ReplPing} {
		p := ReplDeltaPayload{Primary: "p", Standby: "s", Kind: k, User: "alice", Seq: 4, Epoch: 2}
		f.Add(spliced(crypto.Nonce{})(p.Marshal()))
	}
	f.Add(retiredPendingDelta(1)) // rejected: the kind byte is retired
	seedKey, err := crypto.KeyFromBytes(make([]byte, crypto.KeySize))
	if err != nil {
		f.Fatal(err)
	}
	lkhDelta := ReplDeltaPayload{Primary: "p", Standby: "s", Kind: ReplLKH,
		Nodes:   []ReplLKHNode{{ID: 3, Parent: 1, Ver: 2, User: "alice", Key: seedKey, Dirty: true}},
		Removed: []uint64{7, 9}}
	f.Add(spliced(crypto.Nonce{})(lkhDelta.Marshal()))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Marshal draws Next afresh; the decoded one goes back in its place.
		if p, err := UnmarshalReplState(data); err == nil {
			if got := spliced(p.Next)(p.Marshal()); string(got) != string(data) {
				t.Fatalf("ReplState accepted non-canonical payload:\n in %x\nout %x", data, got)
			}
		}
		if p, err := UnmarshalReplDelta(data); err == nil {
			if got := spliced(p.Next)(p.Marshal()); string(got) != string(data) {
				t.Fatalf("ReplDelta accepted non-canonical payload:\n in %x\nout %x", data, got)
			}
		}
	})
}
