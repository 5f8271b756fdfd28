// Connection multiplexing, the one framing of every TCP byte stream in the
// repo: many independent member sessions — typically in many different
// groups — share one TCP connection, one buffered writer, and one read loop.
// Each session is a *stream* identified by a client-allocated uint32 and
// bound to a group ID at open; the server materializes the stream on its
// first data frame and routes it to that group's leader like any other
// accepted connection. A single-session client (DialTCP) is the one-stream
// case: a Mux with one unlabeled stream whose Close hangs up the socket.
//
// Flow control is per-stream and deliberately brutal: every stream has a
// bounded receive queue, and a stream whose consumer falls behind is killed
// (MuxClose both ways) rather than allowed to stall the shared socket. A
// slow group can therefore never head-of-line-block the connection — the
// same "bounded memory beats unbounded hope" policy the group layer applies
// to slow members, applied one layer down. A sole stream gets no exemption.
// The same goes for a peer that stops reading the socket itself: closing a
// stream never waits for the socket, and a write that stalls for
// writeTimeout hangs the connection up.
//
// Writes are group-committed: the frames every stream appends while a flush
// is pending go out in that one flush, so a fan-out to n members on one
// socket costs one write(2), not n.
package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"enclaves/internal/metrics"
	"enclaves/internal/queue"
	"enclaves/internal/wire"
)

// Mux instruments. Frames per flush is transport_frames_sent_total over
// transport_mux_flushes_total; stream kills and connection hangups this side
// decided are counted by cause.
var (
	mFlushes = metrics.NewCounter("transport_mux_flushes_total")
	mKills   = metrics.NewCounterVec("transport_mux_stream_kills_total")
	mHangups = metrics.NewCounterVec("transport_mux_hangups_total")

	mKillOverflow     = mKills.With("overflow")
	mKillRelabel      = mKills.With("relabel")
	mHangupWrite      = mHangups.With("write") // write error or deadline
	mHangupStreamCap  = mHangups.With("stream_cap")
	mHangupTombstones = mHangups.With("tombstone_cap")
	mHangupFraming    = mHangups.With("framing")
)

// DefaultRecvWindow bounds each mux stream's receive queue, in frames.
// Deep enough to absorb a rekey burst plus a fanout backlog, shallow enough
// that a stalled stream caps out at a few hundred frames of memory.
const DefaultRecvWindow = 256

// MuxConfig configures one multiplexed connection.
type MuxConfig struct {
	// Accept, set on the server side, is invoked once per new inbound
	// stream from the demux loop. It must not block: hand the Conn to a
	// goroutine-spawning server (Leader.ServeConn) and return.
	Accept func(group string, c Conn)
	// RecvWindow bounds each stream's receive queue in frames
	// (<= 0 selects DefaultRecvWindow). A stream that overflows its window
	// is killed, not waited for.
	RecvWindow int
	// Logf, if non-nil, receives diagnostics (killed streams, decode
	// errors).
	Logf func(format string, args ...any)
}

func (cfg MuxConfig) recvWindow() int {
	if cfg.RecvWindow <= 0 {
		return DefaultRecvWindow
	}
	return cfg.RecvWindow
}

func (cfg MuxConfig) logf(format string, args ...any) {
	if cfg.Logf != nil {
		cfg.Logf(format, args...)
	}
}

// Mux multiplexes independent streams over one net.Conn. The client side
// opens streams with Open; the server side receives them through
// MuxConfig.Accept. Safe for concurrent use.
//
// Lock order: wmu → mu, because Close flushes before it hangs up and a
// failed write hangs the socket up under wmu; nothing takes wmu under mu.
// The lockorder analyzer enforces it:
//
//enclavelint:lockorder Mux.wmu < Mux.mu
type Mux struct {
	cfg MuxConfig
	nc  net.Conn
	r   *bufio.Reader

	// wmu serializes the shared buffered writer; werr is its sticky error
	// (after a write fails the socket is dead and every stream sees it);
	// flushing marks a group commit whose flush is pending (writeFrame).
	wmu      sync.Mutex
	w        *bufio.Writer
	werr     error
	flushing bool
	// wtimeout is writeTimeout; a field only so a test can shorten it.
	wtimeout time.Duration

	// mu guards streams, dead and closed.
	mu      sync.Mutex
	streams map[uint32]*muxStream
	// dead tombstones stream IDs this side killed unilaterally (flow
	// control, relabeling, local Close): in-flight peer frames for a
	// tombstoned ID are dropped instead of re-materializing the stream.
	// The peer's own MuxClose for the ID — which, by in-order delivery,
	// is the last frame that can ever arrive for it — clears the
	// tombstone, so the set stays bounded for well-behaved peers; a peer
	// that never acknowledges kills is cut off at maxDeadStreams.
	dead   map[uint32]struct{}
	closed bool

	nextID atomic.Uint32
}

// maxStreams caps the live streams of one connection, so one socket — which
// costs its opener one fd — cannot make the server hold unbounded sessions,
// each a serving goroutine and a receive window. Far above any in-tree
// client (the benchmark's generator spreads a few hundred sessions over one
// socket per core); a peer that opens more is cut off.
const maxStreams = 1 << 14

// writeTimeout bounds one flush on the shared socket. A peer that
// stops reading fills the socket buffer and would otherwise park every
// writer on the connection for ever; past the bound the connection is torn
// down, which frees them, the read loop and the fd.
const writeTimeout = 10 * time.Second

// maxDeadStreams caps the tombstone set. Only a peer that keeps streaming
// into killed streams without ever processing the MuxClose replies can grow
// it; past the cap the connection itself is torn down — bounded memory
// beats unbounded hope.
const maxDeadStreams = 1 << 16

// muxStream is one session over a Mux, implementing Conn.
type muxStream struct {
	m     *Mux
	id    uint32
	group string
	recvQ *queue.Queue[wire.Envelope]

	closeOnce sync.Once
}

var _ Conn = (*muxStream)(nil)

// DialMux connects to addr and returns a client-side Mux. The caller opens
// one stream per member session with Open.
func DialMux(addr string, cfg MuxConfig) (*Mux, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial mux %s: %w", addr, err)
	}
	return NewMuxClient(nc, cfg), nil
}

// NewMuxClient wraps an established net.Conn as a client-side Mux and
// starts its demux read loop.
func NewMuxClient(nc net.Conn, cfg MuxConfig) *Mux {
	m := newMux(nc, cfg)
	go m.run()
	return m
}

func newMux(nc net.Conn, cfg MuxConfig) *Mux {
	setNoDelay(nc)
	return &Mux{
		cfg:      cfg,
		nc:       nc,
		r:        bufio.NewReader(nc),
		w:        bufio.NewWriterSize(nc, DefaultWriteBuf),
		wtimeout: writeTimeout,
		streams:  make(map[uint32]*muxStream),
		dead:     make(map[uint32]struct{}),
	}
}

// ServeMuxConn serves one inbound connection: the demux loop runs until the
// socket dies or the peer sends a frame that is not mux-framed
// (wire.ErrBadFrame), then the socket is closed. Blocks for the lifetime of
// the connection; callers run it in a per-connection goroutine.
func ServeMuxConn(nc net.Conn, cfg MuxConfig) error {
	return newMux(nc, cfg).run()
}

// Open starts a new stream bound to group. Stream IDs are allocated only on
// the opening side, so concurrent Opens never collide; the peer materializes
// the stream when its first data frame arrives.
func (m *Mux) Open(group string) (Conn, error) {
	if len(group) > wire.MaxNameLen {
		return nil, fmt.Errorf("%w: group ID too long", wire.ErrTooLarge)
	}
	s := &muxStream{
		m:     m,
		id:    m.nextID.Add(1),
		group: group,
		recvQ: queue.NewBounded[wire.Envelope](m.cfg.recvWindow()),
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	m.streams[s.id] = s
	m.mu.Unlock()
	return s, nil
}

// run is the demux read loop: it routes every inbound frame to its stream
// until the socket dies, then hangs up and tears every stream down.
func (m *Mux) run() error {
	var err error
	for {
		var body []byte
		body, err = wire.ReadRawFrame(m.r)
		if err != nil {
			if errors.Is(err, wire.ErrTooLarge) {
				mHangupFraming.Inc()
			}
			break
		}
		if err = m.dispatch(body); err != nil {
			break
		}
	}
	m.hangup()
	return err
}

// dispatch routes one raw inbound frame. Only malformed framing is a
// connection-fatal error; per-stream trouble kills the stream and keeps the
// connection (that is the point of the mux).
func (m *Mux) dispatch(body []byte) error {
	f, err := wire.DecodeMux(body)
	if err != nil {
		mHangupFraming.Inc()
		return err
	}

	m.mu.Lock()
	s, ok := m.streams[f.Stream]
	if !ok {
		if _, tombstoned := m.dead[f.Stream]; tombstoned {
			// In-flight frames for a stream this side killed unilaterally.
			// The peer's MuxClose is, by in-order delivery, the last frame
			// that can arrive for the ID — it retires the tombstone.
			if f.Flag == wire.MuxClose {
				delete(m.dead, f.Stream)
			}
			m.mu.Unlock()
			return nil
		}
		if f.Flag == wire.MuxClose || m.cfg.Accept == nil || m.closed {
			// Close for an already-gone stream, or data for a stream this
			// client side never opened: stale, drop it.
			m.mu.Unlock()
			return nil
		}
		// Server side: first frame of a new stream materializes it.
		if len(m.streams) >= maxStreams {
			m.mu.Unlock()
			mHangupStreamCap.Inc()
			return fmt.Errorf("transport: mux peer opened more than %d streams", maxStreams)
		}
		s = &muxStream{
			m:     m,
			id:    f.Stream,
			group: f.Group,
			recvQ: queue.NewBounded[wire.Envelope](m.cfg.recvWindow()),
		}
		m.streams[f.Stream] = s
		m.mu.Unlock()
		m.cfg.Accept(f.Group, s)
	} else {
		m.mu.Unlock()
	}

	if f.Flag == wire.MuxClose {
		// Peer-initiated close: close our half and echo a MuxClose so a
		// peer that killed unilaterally can retire its tombstone. No
		// tombstone on this side — in-order delivery guarantees no more
		// frames for the ID after the peer's close.
		m.closeStream(s, true, false)
		return nil
	}
	if f.Group != s.group {
		// A stream is bound to its group at open; a relabeled frame is
		// either a bug or an attempt to smuggle traffic across tenants.
		// Kill the stream, keep the connection.
		m.cfg.logf("mux: stream %d group %q relabeled %q; killing stream", s.id, s.group, f.Group)
		return m.killStream(s, mKillRelabel)
	}
	// Payload aliases the frame body, which is freshly allocated per frame
	// by ReadRawFrame, so queueing it is safe.
	if err := s.recvQ.Push(f.Env); err != nil {
		if errors.Is(err, queue.ErrFull) {
			// Per-stream flow control: the stream's consumer is not keeping
			// up. Killing it here — instead of blocking the read loop —
			// is what stops one slow group from head-of-line-blocking
			// every other stream on the connection.
			m.cfg.logf("mux: stream %d (group %q) overflowed recv window; killing stream", s.id, s.group)
			return m.killStream(s, mKillOverflow)
		}
		return nil
	}
	countRecv(f.Env)
	return nil
}

// killStream unilaterally tears a live stream down: tombstone (so in-flight
// peer frames don't resurrect the ID), notify the peer, close the queue.
// The only error is tombstone-cap exhaustion, which is connection-fatal.
func (m *Mux) killStream(s *muxStream, cause *metrics.Counter) error {
	cause.Inc()
	m.closeStream(s, true, true)
	m.mu.Lock()
	overflow := len(m.dead) > maxDeadStreams
	m.mu.Unlock()
	if overflow {
		mHangupTombstones.Inc()
		return fmt.Errorf("transport: mux peer ignored %d stream kills", maxDeadStreams)
	}
	return nil
}

// closeStream removes a stream and closes its receive queue. notifyPeer
// sends a best-effort MuxClose; tombstone records the ID as dead until the
// peer's own MuxClose arrives (only meaningful for unilateral kills on the
// accepting side — a client-side ID can't be resurrected because Accept is
// nil there). The notification goes out on its own goroutine: a leader
// closes an evicted member's stream while holding its group lock, and the
// writer lock may be held by a write parked on a peer that stopped reading —
// closing a stream must never wait for the socket.
func (m *Mux) closeStream(s *muxStream, notifyPeer, tombstone bool) {
	m.mu.Lock()
	if m.streams[s.id] != s {
		m.mu.Unlock()
		return
	}
	delete(m.streams, s.id)
	if tombstone && m.cfg.Accept != nil {
		m.dead[s.id] = struct{}{}
	}
	m.mu.Unlock()
	s.recvQ.Close()
	if notifyPeer {
		go m.writeFrame(nil, func(w *bufio.Writer) error {
			return wire.WriteMuxFrame(w, s.group, s.id, wire.MuxClose, wire.Envelope{})
		})
	}
}

// Close flushes what the streams have appended, so a send that returned nil
// is not lost to a local hangup, then tears down the connection and every
// stream on it. A flush parked on a peer that stopped reading holds Close up
// to writeTimeout.
func (m *Mux) Close() error {
	m.wmu.Lock()
	m.flushLocked()
	m.wmu.Unlock()
	return m.hangup()
}

// hangup tears down the connection and every stream on it without flushing.
// The read loop calls it on exit, so a socket whose peer hung up is released
// at once rather than held until its owner remembers to close it.
func (m *Mux) hangup() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	streams := m.streams
	m.streams = make(map[uint32]*muxStream)
	m.closed = true
	m.mu.Unlock()
	err := m.nc.Close()
	for _, s := range streams {
		s.recvQ.Close()
	}
	return err
}

// writeFrame appends one stream's frames to the shared writer and sees them
// flushed in a group commit. A writer that finds no flush pending sets the
// write deadline, appends, marks a flush pending and yields once, so the
// writers the same fan-out woke — which on one P become runnable only one
// after another — append behind it; then it retakes the lock and flushes
// everything appended so far in one write. A writer that finds a flush
// pending appends and returns: its frames ride that flush.
//
// Errors are normalized and the first failure is sticky: a socket that
// failed a write is dead, so it is hung up (ending the read loop and every
// stream) and every later send fails fast instead of buffering into a void.
// s is the stream whose data this is, nil for a MuxClose: a closed stream
// sends nothing, checked under the lock at append time so that no data frame
// can follow the stream's MuxClose in the FIFO buffer and re-materialise
// the ID on a peer that has already retired it.
func (m *Mux) writeFrame(s *muxStream, write func(w *bufio.Writer) error) error {
	m.wmu.Lock()
	pending := m.flushing
	if err := m.appendLocked(s, write); err != nil || pending {
		m.wmu.Unlock()
		return err
	}
	m.flushing = true
	m.wmu.Unlock()
	runtime.Gosched()
	m.wmu.Lock()
	defer m.wmu.Unlock()
	m.flushing = false
	return m.flushLocked()
}

// appendLocked buffers one stream's frames; the first writer of a group
// commit also arms the write deadline that bounds its flush.
//
//enclavelint:guardedby Mux.wmu
func (m *Mux) appendLocked(s *muxStream, write func(w *bufio.Writer) error) error {
	if m.werr != nil {
		return m.werr
	}
	if s != nil && s.recvQ.Closed() {
		return ErrClosed
	}
	if !m.flushing {
		m.nc.SetWriteDeadline(time.Now().Add(m.wtimeout))
	}
	return m.failLocked(write(m.w))
}

// flushLocked writes out what the streams have appended, under the deadline
// the first of them armed; a Close may have written it already.
//
//enclavelint:guardedby Mux.wmu
func (m *Mux) flushLocked() error {
	if m.werr != nil || m.w.Buffered() == 0 {
		return m.werr
	}
	mFlushes.Inc()
	return m.failLocked(m.w.Flush())
}

// failLocked makes a write error sticky and hangs the socket up.
//
//enclavelint:guardedby Mux.wmu
func (m *Mux) failLocked(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, net.ErrClosed) {
		err = ErrClosed
	} else {
		mHangupWrite.Inc()
	}
	m.werr = err
	m.hangup()
	return err
}

func (s *muxStream) Send(e wire.Envelope) error {
	err := s.m.writeFrame(s, func(w *bufio.Writer) error {
		return wire.WriteMuxFrame(w, s.group, s.id, wire.MuxData, e)
	})
	if err != nil {
		return err
	}
	countSend(e)
	return nil
}

func (s *muxStream) SendBatch(batch []Outgoing) error {
	err := s.m.writeFrame(s, func(w *bufio.Writer) error {
		for _, o := range batch {
			if o.Enc != nil {
				frame, err := o.Enc.Frame()
				if err != nil {
					return err
				}
				if err := s.spliceLocked(w, frame); err != nil {
					return err
				}
			} else if err := wire.WriteMuxFrame(w, s.group, s.id, wire.MuxData, o.Env); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, o := range batch {
		countSend(o.Envelope())
	}
	return nil
}

// spliceLocked writes one data frame for this stream reusing a shared
// pre-encoded envelope (Encoded.Frame: length prefix + envelope bytes).
// Caller holds the writer lock via writeFrame.
//
//enclavelint:guardedby Mux.wmu
func (s *muxStream) spliceLocked(w *bufio.Writer, envFrame []byte) error {
	envBytes := envFrame[4:] // strip the shared encoding's length prefix
	var prefix [64]byte
	if _, err := w.Write(wire.AppendMuxPrefix(prefix[:0], s.group, s.id, len(envBytes))); err != nil {
		return err
	}
	_, err := w.Write(envBytes)
	return err
}

func (s *muxStream) Recv() (wire.Envelope, error) {
	return translateErr(s.recvQ.Pop())
}

// Close tears down this stream only: the peer is told (best-effort
// MuxClose), the receive queue closes, and the shared connection keeps
// serving every other stream.
func (s *muxStream) Close() error {
	s.closeOnce.Do(func() { s.m.closeStream(s, true, true) })
	return nil
}
