// Mux framing, the only framing of a byte stream in the repo: a daemon
// serves thousands of groups behind one listener, and clients hosting
// members of many groups share one TCP connection for all of them. A mux
// frame wraps an ordinary envelope with a routing header — group ID, stream
// ID, and a control flag — so one byte-stream carries many independent member
// sessions without any per-session socket; a single-session client sends the
// same frames on one stream with an empty group ID. The header, like envelope
// headers, is forgeable metadata: nothing security-relevant depends on it,
// because every payload stays sealed under per-session or per-group keys that
// are themselves derived per group (cross-group ciphertexts fail
// authentication, so group isolation does not rest on the router honoring the
// label).
//
// Layout (after a 4-byte big-endian length prefix):
//
//	[0]    muxMagic (0xE6; the inner envelope encoding starts with 0xE5)
//	[1]    mux version
//	[2]    flag (data | close)
//	[3:7]  stream ID, big-endian
//	[7:]   group ID (u32 length prefix + bytes)
//	rest   inner envelope encoding (data frames only)
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"enclaves/internal/crypto"
)

const (
	muxMagic   = 0xE6
	muxVersion = 1
)

// MuxFlag distinguishes data frames from stream-control frames.
type MuxFlag uint8

// Mux frame flags.
const (
	// MuxData carries one inner envelope for the stream.
	MuxData MuxFlag = 0
	// MuxClose tears the stream down; the frame carries no envelope.
	MuxClose MuxFlag = 1
)

func (f MuxFlag) String() string {
	switch f {
	case MuxData:
		return "MuxData"
	case MuxClose:
		return "MuxClose"
	default:
		return fmt.Sprintf("MuxFlag(%d)", uint8(f))
	}
}

// MuxFrame is one decoded multiplexed frame.
type MuxFrame struct {
	Group  string
	Stream uint32
	Flag   MuxFlag
	Env    Envelope // zero for MuxClose frames
}

func (f MuxFrame) String() string {
	return fmt.Sprintf("%s stream=%d group=%q %s", f.Flag, f.Stream, f.Group, f.Env)
}

// muxHeaderSize is the encoded size of the mux routing header.
func muxHeaderSize(group string) int { return 3 + 4 + 4 + len(group) }

func appendMuxHeader(dst []byte, group string, stream uint32, flag MuxFlag) []byte {
	dst = append(dst, muxMagic, muxVersion, uint8(flag))
	dst = binary.BigEndian.AppendUint32(dst, stream)
	return crypto.AppendLenPrefixed(dst, group)
}

// checkMuxBounds rejects mux frames beyond the encoding limits before any
// allocation, same contract as checkBounds for bare envelopes.
func checkMuxBounds(group string, flag MuxFlag, e Envelope) error {
	if len(group) > MaxNameLen {
		return fmt.Errorf("%w: group ID too long", ErrTooLarge)
	}
	if flag == MuxData {
		return checkBounds(e)
	}
	return nil
}

// EncodeMuxFrame serializes a complete length-prefixed mux frame in one
// exactly-sized allocation.
func EncodeMuxFrame(group string, stream uint32, flag MuxFlag, e Envelope) ([]byte, error) {
	if err := checkMuxBounds(group, flag, e); err != nil {
		return nil, err
	}
	n := muxHeaderSize(group)
	if flag == MuxData {
		n += encodedSize(e)
	}
	buf := make([]byte, 0, 4+n)
	buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	buf = appendMuxHeader(buf, group, stream, flag)
	if flag == MuxData {
		buf = appendEnvelope(buf, e)
	}
	return buf, nil
}

// AppendMuxPrefix appends the length prefix and mux header for a data frame
// whose inner envelope encoding (envLen bytes) the caller writes separately.
// This is the encode-once fan-out path over mux: the shared envelope bytes
// from EncodeFrame are written verbatim after each stream's own prefix, so a
// relay to N members pays one envelope encode and N small headers. The
// caller has validated group length (a stream never sends on a group it did
// not validate at open).
func AppendMuxPrefix(dst []byte, group string, stream uint32, envLen int) []byte {
	n := muxHeaderSize(group) + envLen
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	return appendMuxHeader(dst, group, stream, MuxData)
}

// muxFramePool recycles WriteMuxFrame encode buffers: the buffer is fully
// consumed by one Write and never escapes — unlike EncodeFrame and
// EncodeMuxFrame, whose results are handed to callers and must own their
// storage.
var muxFramePool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// WriteMuxFrame writes a length-prefixed mux frame to w as a single Write
// call, encoding into a pooled buffer.
func WriteMuxFrame(w io.Writer, group string, stream uint32, flag MuxFlag, e Envelope) error {
	if err := checkMuxBounds(group, flag, e); err != nil {
		return err
	}
	n := muxHeaderSize(group)
	if flag == MuxData {
		n += encodedSize(e)
	}
	bp := muxFramePool.Get().(*[]byte)
	buf := binary.BigEndian.AppendUint32((*bp)[:0], uint32(n))
	buf = appendMuxHeader(buf, group, stream, flag)
	if flag == MuxData {
		buf = appendEnvelope(buf, e)
	}
	_, err := w.Write(buf)
	*bp = buf[:0]
	muxFramePool.Put(bp)
	if err != nil {
		return fmt.Errorf("wire: write mux frame: %w", err)
	}
	return nil
}

// DecodeMux parses a mux frame body (a ReadRawFrame result). Like Decode,
// the inner envelope's Payload aliases the input rather than copying it.
func DecodeMux(data []byte) (MuxFrame, error) {
	p := parser{data: data}
	if p.uint8() != muxMagic {
		return MuxFrame{}, fmt.Errorf("%w: bad mux magic", ErrBadFrame)
	}
	if v := p.uint8(); v != muxVersion {
		return MuxFrame{}, fmt.Errorf("%w: unsupported mux version %d", ErrBadFrame, v)
	}
	f := MuxFrame{Flag: MuxFlag(p.uint8()), Stream: p.uint32()}
	f.Group = p.string()
	if p.err != nil {
		return MuxFrame{}, p.err
	}
	if len(f.Group) > MaxNameLen {
		return MuxFrame{}, fmt.Errorf("%w: group ID too long", ErrTooLarge)
	}
	switch f.Flag {
	case MuxClose:
		if err := p.finish(); err != nil {
			return MuxFrame{}, err
		}
	case MuxData:
		env, err := Decode(data[p.pos:])
		if err != nil {
			return MuxFrame{}, err
		}
		f.Env = env
	default:
		return MuxFrame{}, fmt.Errorf("%w: unknown mux flag %d", ErrBadFrame, uint8(f.Flag))
	}
	return f, nil
}

// ReadRawFrame reads one length-prefixed frame body from r without
// interpreting it — the demux read path, which hands it to DecodeMux.
func ReadRawFrame(r io.Reader) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > MaxPayloadLen+1024 {
		return nil, fmt.Errorf("%w: frame of %d bytes", ErrTooLarge, n)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(r, data); err != nil {
		return nil, fmt.Errorf("wire: read frame body: %w", err)
	}
	return data, nil
}
