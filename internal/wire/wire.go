// Package wire defines the on-the-wire message format of the Enclaves
// runtime: a framed envelope (type, apparent sender, intended recipient,
// payload) mirroring the paper's message structure "label, apparent sender,
// intended recipient, content" (Section 4), plus deterministic binary
// encodings for every protocol payload of the improved protocol
// (Section 3.2).
//
// Envelope headers travel in clear — the adversary can read and rewrite
// them — but the runtime binds the header bytes into the AEAD additional
// data of the encrypted payload, so a relabeled or redirected ciphertext
// fails authentication. The formal verification does NOT rely on this
// hardening: the model treats labels as fully forgeable.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"enclaves/internal/crypto"
)

// Type identifies a message on the wire.
type Type uint8

// Improved-protocol message types (Section 3.2) and application data.
const (
	// Improved protocol.
	TypeAuthInitReq Type = iota + 1
	TypeAuthKeyDist
	TypeAuthAckKey
	TypeAdminMsg
	TypeAck
	TypeReqClose
	TypeCloseAck

	// Application data relayed by the leader, encrypted under the group key.
	TypeAppData
)

// Types 9-20 carried the original protocol of Section 2.2, which now lives
// only in the model (internal/model). They are retired: no engine sends or
// parses them, and they are never to be reused.

const (
	// Leader replication and hot failover. ReplState/ReplDelta travel on the
	// primary->standby replication channel sealed under the replication key;
	// Resume/ResumeAck form the session-resumption sub-protocol members use
	// to re-attach to a promoted standby under their existing session key.
	TypeReplState Type = iota + 21
	TypeReplDelta
	TypeResume
	TypeResumeAck
)

// Types 25 and 26 carried the logical key hierarchy's fire-and-forget
// KeyUpdate frame and the KeySyncReq that repaired a lost one. LKH keys now
// ride the AdminMsg pipeline as the KeyBoxes body; the two bytes are
// retired and never to be reused.

var typeNames = map[Type]string{
	TypeAuthInitReq: "AuthInitReq",
	TypeAuthKeyDist: "AuthKeyDist",
	TypeAuthAckKey:  "AuthAckKey",
	TypeAdminMsg:    "AdminMsg",
	TypeAck:         "Ack",
	TypeReqClose:    "ReqClose",
	TypeCloseAck:    "CloseAck",
	TypeAppData:     "AppData",
	TypeReplState:   "ReplState",
	TypeReplDelta:   "ReplDelta",
	TypeResume:      "Resume",
	TypeResumeAck:   "ResumeAck",
}

func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Envelope is one framed message.
type Envelope struct {
	Type     Type
	Sender   string // apparent sender — forgeable metadata
	Receiver string // intended recipient — forgeable metadata
	Payload  []byte // ciphertext
}

func (e Envelope) String() string {
	return fmt.Sprintf("%s %s->%s (%dB)", e.Type, e.Sender, e.Receiver, len(e.Payload))
}

// Header returns the canonical header bytes of the envelope, used as AEAD
// additional data so ciphertexts are cryptographically bound to their label
// and endpoints.
func (e Envelope) Header() []byte {
	b := append(make([]byte, 0, 9+len(e.Sender)+len(e.Receiver)), uint8(e.Type))
	return crypto.AppendLenPrefixed(crypto.AppendLenPrefixed(b, e.Sender), e.Receiver)
}

// Encoding limits. Messages beyond these bounds are rejected before any
// allocation, bounding adversarial memory pressure.
const (
	MaxNameLen    = 255
	MaxPayloadLen = 1 << 20 // 1 MiB
	magic         = 0xE5
	version       = 1
)

// Frame errors.
var (
	ErrBadFrame   = errors.New("wire: malformed frame")
	ErrTooLarge   = errors.New("wire: frame exceeds size limits")
	ErrBadPayload = errors.New("wire: malformed payload")
)

// checkBounds rejects envelopes beyond the encoding limits.
func checkBounds(e Envelope) error {
	if len(e.Sender) > MaxNameLen || len(e.Receiver) > MaxNameLen {
		return fmt.Errorf("%w: name too long", ErrTooLarge)
	}
	if len(e.Payload) > MaxPayloadLen {
		return fmt.Errorf("%w: payload %d bytes", ErrTooLarge, len(e.Payload))
	}
	return nil
}

// encodedSize is the exact encoded length of the envelope (without the
// 4-byte frame length prefix).
func encodedSize(e Envelope) int {
	return 3 + 4 + len(e.Sender) + 4 + len(e.Receiver) + 4 + len(e.Payload)
}

// appendEnvelope appends the envelope encoding to dst, which the caller has
// sized; bounds were checked by checkBounds.
func appendEnvelope(dst []byte, e Envelope) []byte {
	dst = append(dst, magic, version, uint8(e.Type))
	dst = crypto.AppendLenPrefixed(dst, e.Sender)
	dst = crypto.AppendLenPrefixed(dst, e.Receiver)
	return crypto.AppendLenPrefixed(dst, e.Payload)
}

// EncodeFrame serializes the envelope behind a 4-byte big-endian length
// prefix, in one exactly-sized allocation. The result can be shared by any
// number of byte-stream writers — the encode-once fan-out path of the leader
// relay (transport.Outgoing.Enc), where each mux stream splices its own
// routing header in front of the bytes after the prefix.
func EncodeFrame(e Envelope) ([]byte, error) {
	if err := checkBounds(e); err != nil {
		return nil, err
	}
	n := encodedSize(e)
	buf := make([]byte, 0, 4+n)
	buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	return appendEnvelope(buf, e), nil
}

// Decode parses an envelope encoding (EncodeFrame's output after the length
// prefix). The returned envelope's Payload aliases data rather than copying
// it: callers that reuse or mutate the input buffer afterwards must copy the
// payload first. (ReadRawFrame allocates a fresh buffer per frame, so
// envelopes decoded from it are always safe to retain.)
func Decode(data []byte) (Envelope, error) {
	p := parser{data: data}
	if p.uint8() != magic {
		return Envelope{}, fmt.Errorf("%w: bad magic", ErrBadFrame)
	}
	if v := p.uint8(); v != version {
		return Envelope{}, fmt.Errorf("%w: unsupported version %d", ErrBadFrame, v)
	}
	e := Envelope{
		Type:     Type(p.uint8()),
		Sender:   p.string(),
		Receiver: p.string(),
		Payload:  p.bytesRef(),
	}
	if err := p.finish(); err != nil {
		return Envelope{}, err
	}
	if len(e.Sender) > MaxNameLen || len(e.Receiver) > MaxNameLen {
		return Envelope{}, fmt.Errorf("%w: name too long", ErrTooLarge)
	}
	return e, nil
}

// --- deterministic binary building blocks ---

// boolByte encodes a flag: 1 for true, 0 for false.
func boolByte(v bool) uint8 {
	if v {
		return 1
	}
	return 0
}

// parser consumes a deterministic binary encoding, accumulating the first
// error and returning zero values afterwards.
type parser struct {
	data []byte
	pos  int
	err  error
}

func (p *parser) fail() {
	if p.err == nil {
		p.err = ErrBadFrame
	}
}

// take consumes the next n bytes and returns them, aliasing the input (a
// nonce or key field is copied out by its caller); past the end it fails and
// returns nil.
func (p *parser) take(n int) []byte {
	if p.err != nil || n > len(p.data)-p.pos {
		p.fail()
		return nil
	}
	p.pos += n
	return p.data[p.pos-n : p.pos : p.pos]
}

func (p *parser) uint8() uint8 {
	if b := p.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (p *parser) uint32() uint32 {
	if b := p.take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (p *parser) uint64() uint64 {
	if b := p.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// bytesRef consumes a length-prefixed byte string without copying it: the
// result aliases the parser's input. Used for the envelope payload, whose
// input buffer is per-frame and never reused (see Decode); field decoders
// whose result outlives their input use bytes.
func (p *parser) bytesRef() []byte {
	if n := p.uint32(); n <= MaxPayloadLen {
		return p.take(int(n))
	}
	p.fail()
	return nil
}

func (p *parser) bytes() []byte { return bytes.Clone(p.bytesRef()) }

func (p *parser) string() string { return string(p.bytesRef()) }

// finish reports an error if parsing failed or trailing bytes remain.
func (p *parser) finish() error {
	if p.err != nil {
		return p.err
	}
	if p.pos != len(p.data) {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(p.data)-p.pos)
	}
	return nil
}
