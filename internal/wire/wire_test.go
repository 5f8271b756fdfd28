package wire

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"enclaves/internal/crypto"
)

// encode is the envelope encoding Decode parses: EncodeFrame's output after
// the length prefix.
func encode(e Envelope) ([]byte, error) {
	frame, err := EncodeFrame(e)
	if err != nil {
		return nil, err
	}
	return frame[4:], nil
}

func TestEnvelopeEncodeDecodeRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		env  Envelope
	}{
		{"basic", Envelope{Type: TypeAuthInitReq, Sender: "alice", Receiver: "leader", Payload: []byte{1, 2, 3}}},
		{"empty payload", Envelope{Type: TypeReqClose, Sender: "a", Receiver: "l"}},
		{"empty names", Envelope{Type: TypeAck}},
		{"binary payload", Envelope{Type: TypeAppData, Sender: "x", Receiver: "y", Payload: bytes.Repeat([]byte{0xFF, 0x00}, 500)}},
		{"utf8 names", Envelope{Type: TypeAdminMsg, Sender: "ålice", Receiver: "lêader", Payload: []byte("x")}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			data, err := encode(tt.env)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			if got.Type != tt.env.Type || got.Sender != tt.env.Sender || got.Receiver != tt.env.Receiver {
				t.Errorf("header mismatch: got %+v want %+v", got, tt.env)
			}
			if !bytes.Equal(got.Payload, tt.env.Payload) {
				t.Error("payload mismatch")
			}
		})
	}
}

func TestEncodeRejectsOversize(t *testing.T) {
	if _, err := encode(Envelope{Type: TypeAck, Sender: strings.Repeat("x", MaxNameLen+1)}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize sender: err = %v", err)
	}
	if _, err := encode(Envelope{Type: TypeAck, Payload: make([]byte, MaxPayloadLen+1)}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize payload: err = %v", err)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	good, _ := encode(Envelope{Type: TypeAck, Sender: "a", Receiver: "b", Payload: []byte("xyz")})
	tests := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", append([]byte{0x00}, good[1:]...)},
		{"bad version", append([]byte{magic, 99}, good[2:]...)},
		{"truncated", good[:len(good)-2]},
		{"trailing garbage", append(append([]byte(nil), good...), 0xAA)},
		{"only magic", []byte{magic}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Decode(tt.data); err == nil {
				t.Error("malformed frame accepted")
			}
		})
	}
}

func TestHeaderBindsTypeAndEndpoints(t *testing.T) {
	base := Envelope{Type: TypeAdminMsg, Sender: "L", Receiver: "A"}
	mutants := []Envelope{
		{Type: TypeAck, Sender: "L", Receiver: "A"},
		{Type: TypeAdminMsg, Sender: "E", Receiver: "A"},
		{Type: TypeAdminMsg, Sender: "L", Receiver: "E"},
	}
	for _, m := range mutants {
		if bytes.Equal(base.Header(), m.Header()) {
			t.Errorf("headers collide: %v vs %v", base, m)
		}
	}
	// Length-prefixing must prevent concatenation ambiguity.
	a := Envelope{Type: TypeAck, Sender: "ab", Receiver: "c"}
	b := Envelope{Type: TypeAck, Sender: "a", Receiver: "bc"}
	if bytes.Equal(a.Header(), b.Header()) {
		t.Error("header encoding is ambiguous across field boundaries")
	}
}

func TestWriteReadFrame(t *testing.T) {
	var buf bytes.Buffer
	envs := []Envelope{
		{Type: TypeAuthInitReq, Sender: "a", Receiver: "l", Payload: []byte("one")},
		{Type: TypeAuthKeyDist, Sender: "l", Receiver: "a", Payload: []byte("two")},
		{Type: TypeReqClose, Sender: "a", Receiver: "l"},
	}
	for i, e := range envs {
		if err := WriteMuxFrame(&buf, "g", uint32(i), MuxData, e); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range envs {
		body, err := ReadRawFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got, err := DecodeMux(body)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Stream != uint32(i) || got.Env.Type != want.Type || !bytes.Equal(got.Env.Payload, want.Payload) {
			t.Errorf("frame %d: got %v want %v", i, got, want)
		}
	}
	if _, err := ReadRawFrame(&buf); err == nil {
		t.Error("read from empty stream succeeded")
	}
}

func TestReadFrameRejectsHugeLength(t *testing.T) {
	data := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x00}
	if _, err := ReadRawFrame(bytes.NewReader(data)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("huge frame length: err = %v", err)
	}
}

func TestTypeString(t *testing.T) {
	if TypeAuthInitReq.String() != "AuthInitReq" || TypeResumeAck.String() != "ResumeAck" {
		t.Error("type names wrong")
	}
	if !strings.Contains(Type(200).String(), "200") {
		t.Error("unknown type must render its number")
	}
}

// TestTypeNumbersArePinned pins every type's byte on the wire and its name.
// Bytes 9-20 carried the retired legacy protocol and bytes 25 and 26 LKH's
// retired KeyUpdate and KeySyncReq frames; they are never reused, so
// neither deleting a type nor adding one may renumber the rest.
func TestTypeNumbersArePinned(t *testing.T) {
	want := []struct {
		typ  Type
		b    uint8
		name string
	}{
		{TypeAuthInitReq, 1, "AuthInitReq"},
		{TypeAuthKeyDist, 2, "AuthKeyDist"},
		{TypeAuthAckKey, 3, "AuthAckKey"},
		{TypeAdminMsg, 4, "AdminMsg"},
		{TypeAck, 5, "Ack"},
		{TypeReqClose, 6, "ReqClose"},
		{TypeCloseAck, 7, "CloseAck"},
		{TypeAppData, 8, "AppData"},
		{TypeReplState, 21, "ReplState"},
		{TypeReplDelta, 22, "ReplDelta"},
		{TypeResume, 23, "Resume"},
		{TypeResumeAck, 24, "ResumeAck"},
	}
	if len(typeNames) != len(want) {
		t.Errorf("typeNames has %d entries, the table pins %d", len(typeNames), len(want))
	}
	for _, w := range want {
		if uint8(w.typ) != w.b || w.typ.String() != w.name {
			t.Errorf("%s = %d, want %s = %d", w.typ, uint8(w.typ), w.name, w.b)
		}
	}
	for _, b := range []int{9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 25, 26} {
		if _, ok := typeNames[Type(b)]; ok {
			t.Errorf("retired type byte %d is reused by %s", b, Type(b))
		}
	}
}

// TestAdminKindsArePinned pins every admin body's kind byte and name. Bytes
// 2 and 3 carried the one-name MemberJoined and MemberLeft notices that
// MemberChanges replaced, and byte 1 the NewGroupKey with separate Joined
// and Left lists: the decoder rejects them and no kind reuses them.
func TestAdminKindsArePinned(t *testing.T) {
	want := []struct {
		body AdminBody
		b    uint8
		name string
	}{
		{MemberList{}, 4, "MemberList"},
		{Heartbeat{}, 5, "Heartbeat"},
		{PathKeys{}, 6, "PathKeys"},
		{MemberChanges{}, 7, "MemberChanges"},
		{NewGroupKey{}, 8, "NewGroupKey"},
		{KeyBoxes{}, 9, "KeyBoxes"},
	}
	if len(adminKindNames) != len(want) {
		t.Errorf("adminKindNames has %d entries, the table pins %d", len(adminKindNames), len(want))
	}
	for _, w := range want {
		k := w.body.AdminKind()
		if uint8(k) != w.b || k.String() != w.name {
			t.Errorf("%s = %d, want %s = %d", k, uint8(k), w.name, w.b)
		}
		if got := adminBody(w.body)[0]; got != w.b {
			t.Errorf("%s encodes kind byte %d, want %d", w.name, got, w.b)
		}
	}
	for _, b := range []uint8{1, 2, 3} {
		if name := AdminKind(b).String(); name != fmt.Sprintf("AdminKind(%d)", b) {
			t.Errorf("retired kind byte %d is reused by %s", b, name)
		}
		// The retired encodings: one name after bytes 2 and 3; after byte 1
		// epoch, key, one joined name and no left names.
		var old []byte
		old = append(old, b)
		if b == 1 {
			old = binary.BigEndian.AppendUint64(old, 2)
			old = append(old, make([]byte, crypto.KeySize)...)
			old = append(old, 1)
		}
		old = crypto.AppendLenPrefixed(old, "bob")
		if b == 1 {
			old = append(old, 0)
		}
		if body, err := UnmarshalAdminBody(old); !errors.Is(err, ErrBadPayload) {
			t.Errorf("retired kind byte %d decoded as %v (err %v)", b, body, err)
		}
	}
}

// TestMemberChangesBound: a list of MaxDeltaNames changes round-trips, one
// more is rejected, and so is a change whose name is not behind a + or -.
func TestMemberChangesBound(t *testing.T) {
	var full MemberChanges
	for i := 0; i < MaxDeltaNames; i++ {
		full.Changes = append(full.Changes, MemberChange{Name: fmt.Sprintf("m%d", i), Left: i%2 == 1})
	}
	body, err := UnmarshalAdminBody(adminBody(full))
	if err != nil || body.String() != full.String() {
		t.Fatalf("%d changes: got %v, %v", MaxDeltaNames, body, err)
	}

	over := full
	over.Changes = append(slices.Clip(full.Changes), MemberChange{Name: "extra"})
	if body, err := UnmarshalAdminBody(adminBody(over)); !errors.Is(err, ErrBadPayload) {
		t.Errorf("%d changes accepted as %v", len(over.Changes), body)
	}

	for _, change := range []string{"", "bob", "*bob"} {
		var bad []byte
		bad = append(bad, uint8(AdminMemberChanges))
		bad = append(bad, 1)
		bad = crypto.AppendLenPrefixed(bad, change)
		if body, err := UnmarshalAdminBody(bad); !errors.Is(err, ErrBadPayload) {
			t.Errorf("change %q accepted as %v", change, body)
		}
	}
}

// randNonce is an arbitrary nonce for an echo field.
func randNonce() crypto.Nonce {
	var n crypto.Nonce
	rand.Read(n[:])
	return n
}

func mustKey(t *testing.T) crypto.Key {
	t.Helper()
	k, err := crypto.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestAuthInitPayloadRoundTrip(t *testing.T) {
	in := AuthInitPayload{User: "alice", Leader: "leader"}
	data, n1 := opened(in.Marshal())
	out, err := UnmarshalAuthInit(data)
	if err != nil {
		t.Fatal(err)
	}
	if out.User != in.User || out.Leader != in.Leader || !out.N1.Equal(n1) {
		t.Errorf("round trip: got %+v", out)
	}
}

func TestAuthKeyDistPayloadRoundTrip(t *testing.T) {
	in := AuthKeyDistPayload{Leader: "l", User: "u", N1: randNonce(), SessionKey: mustKey(t)}
	data, n2 := opened(in.Marshal())
	out, err := UnmarshalAuthKeyDist(data)
	if err != nil {
		t.Fatal(err)
	}
	if out.Leader != in.Leader || out.User != in.User ||
		!out.N1.Equal(in.N1) || !out.N2.Equal(n2) || !out.SessionKey.Equal(in.SessionKey) {
		t.Errorf("round trip: got %+v", out)
	}
}

func TestAckPayloadRoundTrip(t *testing.T) {
	in := AckPayload{User: "u", Leader: "l", NPrev: randNonce()}
	data, next := opened(in.Marshal())
	out, err := UnmarshalAck(data)
	if err != nil {
		t.Fatal(err)
	}
	if in.NNext = next; out != in {
		t.Errorf("round trip: got %+v want %+v", out, in)
	}
}

// fixedKey is the key whose last eight bytes are n, big-endian. The subtest
// names below print each key's fingerprint, so random keys would rename the
// subtests on every run.
func fixedKey(t *testing.T, n uint64) crypto.Key {
	t.Helper()
	var b [crypto.KeySize]byte
	binary.BigEndian.PutUint64(b[crypto.KeySize-8:], n)
	k, err := crypto.KeyFromBytes(b[:])
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestAdminMsgPayloadRoundTrip(t *testing.T) {
	bodies := []AdminBody{
		NewGroupKey{Epoch: 42, Key: fixedKey(t, 1259087954)},
		NewGroupKey{Epoch: 43, Key: fixedKey(t, 838272962), Changes: []MemberChange{{Name: "dave", Left: true}}},
		NewGroupKey{Epoch: 44, Key: fixedKey(t, 3706276106), Changes: []MemberChange{{Name: "bob", Left: true}, {Name: "al"}}},
		Joined("carol"),
		Left("dave"),
		MemberChanges{Changes: []MemberChange{{Name: "erin"}, {Name: "bob", Left: true}, {Name: "erin", Left: true}}},
		MemberList{Names: []string{"alice", "bob", "carol"}},
		MemberList{},
	}
	for _, body := range bodies {
		t.Run(body.String(), func(t *testing.T) {
			in := AdminMsgPayload{
				Leader: "l", User: "u",
				NPrev: randNonce(),
				Seq:   7, Body: body,
			}
			data, next := opened(in.Marshal())
			out, err := UnmarshalAdminMsg(data)
			if err != nil {
				t.Fatal(err)
			}
			if out.Seq != in.Seq || !out.NPrev.Equal(in.NPrev) || !out.NNext.Equal(next) {
				t.Errorf("header round trip: got %+v", out)
			}
			if out.Body.String() != body.String() {
				t.Errorf("body round trip: got %s want %s", out.Body, body)
			}
		})
	}
}

func TestClosePayloadRoundTrip(t *testing.T) {
	in := ClosePayload{User: "u", Leader: "l"}
	out, err := UnmarshalClose(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip: got %+v", out)
	}
}

func TestAppDataPayloadRoundTrip(t *testing.T) {
	in := AppDataPayload{Sender: "alice", Epoch: 3, Data: []byte("hello group")}
	out, err := UnmarshalAppData(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if out.Sender != in.Sender || out.Epoch != in.Epoch || !bytes.Equal(out.Data, in.Data) {
		t.Errorf("round trip: got %+v", out)
	}
}

func TestPayloadUnmarshalRejectsGarbage(t *testing.T) {
	garbage := [][]byte{nil, {0}, bytes.Repeat([]byte{0xFF}, 3), bytes.Repeat([]byte{0x01}, 17)}
	for _, g := range garbage {
		if _, err := UnmarshalAuthInit(g); err == nil {
			t.Errorf("AuthInit accepted %x", g)
		}
		if _, err := UnmarshalAuthKeyDist(g); err == nil {
			t.Errorf("AuthKeyDist accepted %x", g)
		}
		if _, err := UnmarshalAck(g); err == nil {
			t.Errorf("Ack accepted %x", g)
		}
		if _, err := UnmarshalAdminMsg(g); err == nil {
			t.Errorf("AdminMsg accepted %x", g)
		}
		if _, err := UnmarshalAppData(g); err == nil {
			t.Errorf("AppData accepted %x", g)
		}
	}
	// Close of zero bytes is malformed too (needs two length prefixes).
	if _, err := UnmarshalClose(nil); err == nil {
		t.Error("Close accepted empty input")
	}
}

func TestPayloadUnmarshalRejectsTrailingBytes(t *testing.T) {
	data, _ := opened(AckPayload{User: "u", Leader: "l", NPrev: randNonce()}.Marshal())
	if _, err := UnmarshalAck(append(data, 0x00)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// TestNewGroupKeyGolden pins the encoding: kind, epoch, key, then the change
// list as MemberChanges encodes it, a one-byte count and length-prefixed
// signed names in the order given. A rotation no change caused ends in a
// zero count.
func TestNewGroupKeyGolden(t *testing.T) {
	raw := make([]byte, crypto.KeySize)
	for i := range raw {
		raw[i] = byte(i)
	}
	key, err := crypto.KeyFromBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	const head = "08" + "0000000000000207" + "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
	for _, tc := range []struct {
		body NewGroupKey
		want string
	}{
		{NewGroupKey{Epoch: 0x207, Key: key}, head + "00"},
		{NewGroupKey{Epoch: 0x207, Key: key, Changes: []MemberChange{{Name: "bob", Left: true}}}, head + "01" + "000000042d626f62"},
		{NewGroupKey{Epoch: 0x207, Key: key, Changes: []MemberChange{{Name: "eve"}, {Name: "bob", Left: true}, {Name: "al"}}},
			head + "03" + "000000042b657665" + "000000042d626f62" + "000000032b616c"},
	} {
		enc := adminBody(tc.body)
		if got := hex.EncodeToString(enc); got != tc.want {
			t.Errorf("%s encodes as\n %s, want\n %s", tc.body, got, tc.want)
		}
		back, err := UnmarshalAdminBody(enc)
		if err != nil {
			t.Fatalf("%s: %v", tc.body, err)
		}
		if !reflect.DeepEqual(back, tc.body) {
			t.Errorf("round trip: got %s want %s", back, tc.body)
		}
	}
}

// TestNewGroupKeyDeltaBounded: a list longer than MaxDeltaNames is refused
// before any name is read, a list at the bound is not, and a count that
// promises more names than the body holds is a bad payload, not a panic.
func TestNewGroupKeyDeltaBounded(t *testing.T) {
	changes := make([]MemberChange, MaxDeltaNames)
	for i := range changes {
		changes[i] = MemberChange{Name: "m", Left: i%2 == 0}
	}
	atBound := adminBody(NewGroupKey{Epoch: 1, Key: mustKey(t), Changes: changes})
	if _, err := UnmarshalAdminBody(atBound); err != nil {
		t.Fatalf("delta of %d changes rejected: %v", MaxDeltaNames, err)
	}
	overBound := adminBody(NewGroupKey{Epoch: 1, Key: mustKey(t), Changes: append(changes, MemberChange{Name: "m"})})
	if _, err := UnmarshalAdminBody(overBound); !errors.Is(err, ErrBadPayload) {
		t.Errorf("delta of %d changes: err = %v, want ErrBadPayload", MaxDeltaNames+1, err)
	}
	countAt := 1 + 8 + crypto.KeySize
	over := adminBody(NewGroupKey{Epoch: 1, Key: mustKey(t)})
	over[countAt] = MaxDeltaNames + 1
	if _, err := UnmarshalAdminBody(over); !errors.Is(err, ErrBadPayload) {
		t.Errorf("delta of %d names: err = %v, want ErrBadPayload", MaxDeltaNames+1, err)
	}
	short := adminBody(NewGroupKey{Epoch: 1, Key: mustKey(t)})
	short[countAt] = 3
	if _, err := UnmarshalAdminBody(short); !errors.Is(err, ErrBadPayload) {
		t.Errorf("count beyond the body: err = %v, want ErrBadPayload", err)
	}
}

func TestAdminBodyUnknownKind(t *testing.T) {
	if _, err := UnmarshalAdminBody([]byte{0xEE, 1, 2, 3}); err == nil {
		t.Error("unknown admin kind accepted")
	}
}

func TestMemberListCanonicalOrder(t *testing.T) {
	a := adminBody(MemberList{Names: []string{"b", "a", "c"}})
	b := adminBody(MemberList{Names: []string{"c", "b", "a"}})
	if !bytes.Equal(a, b) {
		t.Error("member list encoding not canonical")
	}
}

func TestAdminKindStrings(t *testing.T) {
	if AdminNewGroupKey.String() != "NewGroupKey" || AdminMemberList.String() != "MemberList" {
		t.Error("admin kind names wrong")
	}
	if !strings.Contains(AdminKind(99).String(), "99") {
		t.Error("unknown admin kind must render its number")
	}
}
