package wire

import (
	"bytes"
	"testing"
)

// fuzzSeeds is a seed corpus covering every message type: one valid frame
// per Type, with representative sender/receiver/payload shapes (empty names,
// empty payloads, binary payloads, max-length names). It keeps a frame for
// each retired type byte 9-20 too: no engine sends them, but the framing
// carries any type byte opaquely, and the improved A1/A4 scenarios inject
// exactly such frames.
func fuzzSeeds(f *F) []Envelope {
	f.Helper()
	long := string(bytes.Repeat([]byte{'n'}, MaxNameLen))
	seeds := []Envelope{
		{Type: TypeAuthInitReq, Sender: "alice", Receiver: "leader", Payload: []byte{0xE5, 0x01, 0x00, 0xFF}},
		{Type: TypeAuthKeyDist, Sender: "leader", Receiver: "alice", Payload: bytes.Repeat([]byte{0xAB}, 64)},
		{Type: TypeAuthAckKey, Sender: "alice", Receiver: "leader"},
		{Type: TypeAdminMsg, Sender: "leader", Receiver: "bob", Payload: []byte("ciphertext")},
		{Type: TypeAck, Sender: "bob", Receiver: "leader", Payload: []byte{0}},
		{Type: TypeReqClose, Sender: "carol", Receiver: "leader", Payload: []byte{1, 2, 3}},
		{Type: TypeCloseAck, Sender: "leader", Receiver: "carol"},
		{Type: TypeAppData, Sender: "alice", Receiver: "leader", Payload: bytes.Repeat([]byte{0x00}, 256)},
		{Type: 9, Sender: "", Receiver: ""},
		{Type: 10, Sender: long, Receiver: long},
		{Type: 11, Sender: "leader", Receiver: "mallory"},
		{Type: 12, Sender: "alice", Receiver: "leader", Payload: []byte{0xDE, 0xAD}},
		{Type: 13, Sender: "leader", Receiver: "alice", Payload: []byte{0xBE, 0xEF}},
		{Type: 14, Sender: "alice", Receiver: "leader"},
		{Type: 15, Sender: "leader", Receiver: "alice", Payload: bytes.Repeat([]byte{0x11}, 32)},
		{Type: 16, Sender: "alice", Receiver: "leader"},
		{Type: 17, Sender: "bob", Receiver: "leader"},
		{Type: 18, Sender: "leader", Receiver: "bob"},
		{Type: 19, Sender: "leader", Receiver: "alice", Payload: []byte("bob")},
		{Type: 20, Sender: "leader", Receiver: "alice", Payload: []byte("carol")},
		{Type: TypeReplState, Sender: "standby", Receiver: "leader", Payload: bytes.Repeat([]byte{0x77}, 48)},
		{Type: TypeReplDelta, Sender: "leader", Receiver: "standby", Payload: []byte{0x03, 0x00}},
		{Type: TypeResume, Sender: "alice", Receiver: "leader", Payload: bytes.Repeat([]byte{0x5A}, 32)},
		{Type: TypeResumeAck, Sender: "leader", Receiver: "alice"},
		{Type: TypeKeyUpdate, Sender: "leader", Receiver: "", Payload: bytes.Repeat([]byte{0x42}, 96)},
		{Type: TypeKeySyncReq, Sender: "alice", Receiver: "leader", Payload: []byte{0, 0, 0, 0, 0, 0, 0, 7}},
	}
	return seeds
}

// F aliases testing.F so fuzzSeeds can take a helper receiver.
type F = testing.F

// FuzzDecode feeds arbitrary bytes to Decode: it must never panic, and any
// envelope it accepts must survive an encode/Decode round trip unchanged
// (accepted frames are canonical).
func FuzzDecode(f *testing.F) {
	for _, e := range fuzzSeeds(f) {
		enc, err := encode(e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	// Adversarial shapes: truncations, bad magic, absurd length fields.
	f.Add([]byte{})
	f.Add([]byte{magic})
	f.Add([]byte{magic, version})
	f.Add([]byte{magic, version, 1, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0x00, version, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Decode(data)
		if err != nil {
			return
		}
		enc, err := encode(e)
		if err != nil {
			t.Fatalf("decoded envelope fails to re-encode: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted frame is not canonical:\n in: %x\nout: %x", data, enc)
		}
		e2, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if e2.Type != e.Type || e2.Sender != e.Sender || e2.Receiver != e.Receiver || !bytes.Equal(e2.Payload, e.Payload) {
			t.Fatalf("round trip changed envelope: %v != %v", e2, e)
		}
	})
}

// FuzzRoundTrip drives EncodeFrame -> Decode and WriteMuxFrame ->
// ReadRawFrame -> DecodeMux with arbitrary envelope fields: every in-bounds
// envelope must round-trip exactly through both, and the pooled writer must
// emit the bytes EncodeMuxFrame builds around the shared envelope encoding.
func FuzzRoundTrip(f *testing.F) {
	for _, e := range fuzzSeeds(f) {
		f.Add(uint8(e.Type), e.Sender, e.Receiver, e.Payload)
	}
	f.Fuzz(func(t *testing.T, typ uint8, sender, receiver string, payload []byte) {
		e := Envelope{Type: Type(typ), Sender: sender, Receiver: receiver, Payload: payload}
		enc, err := encode(e)
		if err != nil {
			if len(sender) > MaxNameLen || len(receiver) > MaxNameLen || len(payload) > MaxPayloadLen {
				return // out of bounds, rejection is the contract
			}
			t.Fatalf("in-bounds envelope rejected: %v", err)
		}
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("decode own encoding: %v", err)
		}
		if got.Type != e.Type || got.Sender != e.Sender || got.Receiver != e.Receiver || !bytes.Equal(got.Payload, e.Payload) {
			t.Fatalf("round trip changed envelope: %v != %v", got, e)
		}

		frame, err := EncodeMuxFrame(receiver, uint32(typ), MuxData, e)
		if err != nil {
			t.Fatalf("EncodeMuxFrame after EncodeFrame succeeded: %v", err)
		}
		if !bytes.HasSuffix(frame, enc) {
			t.Fatal("EncodeMuxFrame does not end in the envelope encoding")
		}
		var buf bytes.Buffer
		if err := WriteMuxFrame(&buf, receiver, uint32(typ), MuxData, e); err != nil {
			t.Fatalf("WriteMuxFrame: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), frame) {
			t.Fatal("WriteMuxFrame bytes differ from EncodeMuxFrame")
		}
		body, err := ReadRawFrame(&buf)
		if err != nil {
			t.Fatalf("ReadRawFrame own frame: %v", err)
		}
		mf, err := DecodeMux(body)
		if err != nil {
			t.Fatalf("DecodeMux own frame: %v", err)
		}
		got = mf.Env
		if mf.Group != receiver || mf.Stream != uint32(typ) || got.Type != e.Type || got.Sender != e.Sender || got.Receiver != e.Receiver || !bytes.Equal(got.Payload, e.Payload) {
			t.Fatalf("frame round trip changed envelope: %v != %v", mf, e)
		}
	})
}

// FuzzReadFrame feeds arbitrary byte streams to the read path of every
// connection, ReadRawFrame -> DecodeMux: it must never panic or
// over-allocate on adversarial length prefixes, and whatever it accepts
// must be a canonical frame.
func FuzzReadFrame(f *testing.F) {
	for i, e := range fuzzSeeds(f) {
		frame, err := EncodeMuxFrame(e.Receiver, uint32(i), MuxData, e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		// Two frames back to back: the reader must consume exactly one.
		f.Add(append(append([]byte{}, frame...), frame...))
		// The same envelope without a mux header must be rejected.
		bare, err := EncodeFrame(e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bare)
	}
	// Length prefix promising far more than the stream holds, and an
	// oversized declared frame that must be rejected before allocation.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0x00, 0x00, 0x01, 0x00, muxMagic})

	f.Fuzz(func(t *testing.T, stream []byte) {
		r := bytes.NewReader(stream)
		body, err := ReadRawFrame(r)
		if err != nil {
			return
		}
		mf, err := DecodeMux(body)
		if err != nil {
			return
		}
		enc, err := EncodeMuxFrame(mf.Group, mf.Stream, mf.Flag, mf.Env)
		if err != nil {
			t.Fatalf("accepted frame fails to re-encode: %v", err)
		}
		consumed := len(stream) - r.Len()
		if !bytes.Equal(enc, stream[:consumed]) {
			t.Fatalf("accepted stream prefix is not canonical:\n in: %x\nout: %x", stream[:consumed], enc)
		}
	})
}

// FuzzKeyUpdate drives the key-carrying payload codecs with arbitrary bytes:
// neither UnmarshalKeyUpdate nor the PathKeys and NewGroupKey admin-body
// decoders may panic or over-allocate, and whatever they accept must
// re-marshal canonically (including the AD prefix KeyUpdate seals bind to).
func FuzzKeyUpdate(f *testing.F) {
	ku := KeyUpdatePayload{Node: 9, Ver: 3, Under: 4, Epoch: 12, Root: true, Box: bytes.Repeat([]byte{0xAB}, 60)}
	f.Add(ku.Marshal())
	f.Add(KeyUpdatePayload{Node: 1, Ver: 1, Under: 2, Epoch: 1}.Marshal())
	f.Add(KeySyncPayload{Epoch: 41}.Marshal())
	f.Add(MarshalAdminBody(PathKeys{Epoch: 7, Root: 1, Leaf: 5}))
	f.Add(MarshalAdminBody(NewGroupKey{Epoch: 8}))
	f.Add(MarshalAdminBody(NewGroupKey{Epoch: 9, Joined: []string{"carol"}}))
	f.Add(MarshalAdminBody(NewGroupKey{Epoch: 10, Joined: []string{"erin", ""}, Left: []string{"bob", "dave"}}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 41))

	f.Fuzz(func(t *testing.T, data []byte) {
		if p, err := UnmarshalKeyUpdate(data); err == nil {
			if !bytes.Equal(p.Marshal(), data) {
				t.Fatalf("accepted key update is not canonical: %x", data)
			}
			if !bytes.Equal(p.Marshal()[:len(p.AD())], p.AD()) {
				t.Fatal("AD is not a prefix of the encoding")
			}
		}
		if body, err := UnmarshalAdminBody(data); err == nil {
			switch body.(type) {
			case PathKeys, NewGroupKey:
				if !bytes.Equal(MarshalAdminBody(body), data) {
					t.Fatalf("accepted %s is not canonical: %x", body.AdminKind(), data)
				}
			}
		}
	})
}
