package wire

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"enclaves/internal/crypto"
)

func TestMuxRoundTrip(t *testing.T) {
	env := Envelope{Type: TypeAppData, Sender: "alice", Receiver: "g7", Payload: []byte("ciphertext")}
	frame, err := EncodeMuxFrame("g7", 42, MuxData, env)
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(frame)
	body, err := ReadRawFrame(r)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatalf("ReadRawFrame left %d bytes", r.Len())
	}
	f, err := DecodeMux(body)
	if err != nil {
		t.Fatal(err)
	}
	if f.Group != "g7" || f.Stream != 42 || f.Flag != MuxData {
		t.Fatalf("header round trip: %v", f)
	}
	if f.Env.Type != env.Type || f.Env.Sender != env.Sender || f.Env.Receiver != env.Receiver || !bytes.Equal(f.Env.Payload, env.Payload) {
		t.Fatalf("envelope round trip: %v != %v", f.Env, env)
	}
}

func TestMuxCloseFrame(t *testing.T) {
	frame, err := EncodeMuxFrame("beta", 7, MuxClose, Envelope{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := DecodeMux(frame[4:])
	if err != nil {
		t.Fatal(err)
	}
	if f.Flag != MuxClose || f.Group != "beta" || f.Stream != 7 {
		t.Fatalf("close frame: %v", f)
	}
	// A close frame with trailing bytes is malformed.
	bad := append(append([]byte{}, frame[4:]...), 0x00)
	if _, err := DecodeMux(bad); err == nil {
		t.Fatal("close frame with trailing bytes accepted")
	}
}

func TestWriteMuxFrameMatchesEncode(t *testing.T) {
	env := Envelope{Type: TypeAdminMsg, Sender: "leader", Receiver: "bob", Payload: bytes.Repeat([]byte{0xAB}, 300)}
	enc, err := EncodeMuxFrame("g0", 9, MuxData, env)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteMuxFrame(&buf, "g0", 9, MuxData, env); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), enc) {
		t.Fatal("WriteMuxFrame bytes differ from EncodeMuxFrame")
	}
}

// TestAppendMuxPrefix pins the encode-once splice: per-stream prefix plus
// the shared EncodeFrame envelope bytes must be byte-identical to a full
// EncodeMuxFrame.
func TestAppendMuxPrefix(t *testing.T) {
	env := Envelope{Type: TypeAppData, Sender: "alice", Receiver: "g3", Payload: []byte("shared fan-out bytes")}
	whole, err := EncodeMuxFrame("g3", 17, MuxData, env)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := EncodeFrame(env)
	if err != nil {
		t.Fatal(err)
	}
	envBytes := shared[4:] // strip the plain frame's length prefix
	spliced := AppendMuxPrefix(nil, "g3", 17, len(envBytes))
	spliced = append(spliced, envBytes...)
	if !bytes.Equal(spliced, whole) {
		t.Fatalf("spliced mux frame differs:\n got %x\nwant %x", spliced, whole)
	}
}

func TestMuxBounds(t *testing.T) {
	longGroup := strings.Repeat("g", MaxNameLen+1)
	if _, err := EncodeMuxFrame(longGroup, 1, MuxData, Envelope{Type: TypeAck}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized group: err = %v, want ErrTooLarge", err)
	}
	big := Envelope{Type: TypeAppData, Payload: make([]byte, MaxPayloadLen+1)}
	if _, err := EncodeMuxFrame("g", 1, MuxData, big); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized payload: err = %v, want ErrTooLarge", err)
	}
	// An oversized group smuggled past encoding must still be rejected by the
	// decoder.
	var b []byte
	b = append(b, muxMagic)
	b = append(b, muxVersion)
	b = append(b, uint8(MuxClose))
	b = append(b, 0, 0, 0, 1) // stream
	b = crypto.AppendLenPrefixed(b, longGroup)
	if _, err := DecodeMux(b); err == nil {
		t.Fatal("oversized decoded group accepted")
	}
}

func TestDecodeMuxMalformed(t *testing.T) {
	env := Envelope{Type: TypeAck, Sender: "a", Receiver: "l"}
	frame, err := EncodeMuxFrame("g", 3, MuxData, env)
	if err != nil {
		t.Fatal(err)
	}
	body := frame[4:]
	for cut := 0; cut < len(body); cut++ {
		if _, err := DecodeMux(body[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Unknown flag.
	bad := append([]byte{}, body...)
	bad[2] = 0x7F
	if _, err := DecodeMux(bad); err == nil {
		t.Fatal("unknown mux flag accepted")
	}
	// A bare envelope body is not a mux body.
	plain, err := encode(env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMux(plain); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("bare envelope as mux frame: err = %v, want ErrBadFrame", err)
	}
}

// TestReadRawFrameDispatch pins the one-framing contract on a shared reader:
// a frame that carries a bare envelope (what a pre-mux client would send)
// still reads as a raw body, and DecodeMux — the only parser behind the
// reader — rejects it without disturbing the frames around it.
func TestReadRawFrameDispatch(t *testing.T) {
	env := Envelope{Type: TypeAppData, Sender: "alice", Receiver: "leader", Payload: []byte("x")}
	bare, err := EncodeFrame(env)
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	stream.Write(bare)
	if err := WriteMuxFrame(&stream, "g1", 5, MuxData, env); err != nil {
		t.Fatal(err)
	}

	body, err := ReadRawFrame(&stream)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMux(body); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("bare envelope frame: err = %v, want ErrBadFrame", err)
	}
	body, err = ReadRawFrame(&stream)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMux(body); err != nil {
		t.Fatal(err)
	}
}

// FuzzMux feeds arbitrary bytes to DecodeMux (no panics, no over-allocation,
// accepted frames are canonical) and round-trips arbitrary headers.
func FuzzMux(f *testing.F) {
	// Every message type rides inside a mux frame, so mutation reaches the
	// inner parser's edges for the whole protocol, not just app data. The
	// retired bytes 9-20, 25 and 26 ride too: the mux carries any type byte
	// opaquely.
	allTypes := []Type{
		TypeAuthInitReq, TypeAuthKeyDist, TypeAuthAckKey, TypeAdminMsg,
		TypeAck, TypeReqClose, TypeCloseAck, TypeAppData, 26,
		25, TypeReplState, TypeReplDelta, TypeResume,
		TypeResumeAck,
	}
	for b := Type(9); b <= 20; b++ {
		allTypes = append(allTypes, b)
	}
	for i, typ := range allTypes {
		env := Envelope{Type: typ, Sender: "alice", Receiver: "leader", Payload: []byte{byte(i), 0xE5}}
		if frame, err := EncodeMuxFrame("g0", uint32(i), MuxData, env); err == nil {
			f.Add(frame[4:])
		}
	}
	if frame, err := EncodeMuxFrame("beta", 0xFFFFFFFF, MuxClose, Envelope{}); err == nil {
		f.Add(frame[4:])
	}
	f.Add([]byte{muxMagic})
	f.Add([]byte{muxMagic, muxVersion, 0, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		mf, err := DecodeMux(data)
		if err != nil {
			return
		}
		enc, err := EncodeMuxFrame(mf.Group, mf.Stream, mf.Flag, mf.Env)
		if err != nil {
			t.Fatalf("accepted mux frame fails to re-encode: %v", err)
		}
		if !bytes.Equal(enc[4:], data) {
			t.Fatalf("accepted mux frame is not canonical:\n in: %x\nout: %x", data, enc[4:])
		}
	})
}
