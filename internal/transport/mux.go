// Connection multiplexing, the one framing of every TCP byte stream in the
// repo: many independent member sessions — typically in many different
// groups — share one TCP connection, one buffered writer, and one read loop.
// Each session is a *stream* identified by a client-allocated uint32 and
// bound to a group ID at open; the server materializes the stream on its
// first data frame and routes it to that group's leader like any other
// accepted connection. A single-session client (DialTCP) is the one-stream
// case: a Mux with one unlabeled stream whose Close hangs up the socket.
//
// The read loop calls a stream's Push (a leader's session, a client's
// member) with each frame, so a session costs no goroutine, and every stream
// of the socket waits for it; when the socket ends, by a hangup or a local
// Close, the loop ends every stream still open. A stream without a Push
// queues frames for Recv in a bounded window, and one whose Recv falls
// behind is killed (MuxClose both ways) rather than allowed to stall the
// shared socket — the same "bounded memory beats unbounded hope" policy the
// group layer applies to slow members, applied one layer down. The same goes
// for a peer that stops reading the socket itself: no sender and no stream
// Close ever waits for the socket, and a write that stalls for writeTimeout
// hangs the connection up.
//
// One writer goroutine per socket drains every stream with something to send
// and flushes once per pass: a fan-out to n members on one socket costs one
// write(2), not n.
package transport

import (
	"bufio"
	"errors"
	"fmt"
	"maps"
	"net"
	"slices"
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

// DefaultRecvWindow bounds the receive queue of a stream with no Push, in
// frames: deep enough to absorb a rekey burst plus a fanout backlog,
// shallow enough that a stalled stream caps out at a few hundred frames.
const DefaultRecvWindow = 256

// MuxConfig configures one multiplexed connection.
type MuxConfig struct {
	// Accept, set on the server side, is invoked on the read loop once per
	// new inbound stream, before its first frame. It must not wait on the
	// network: attach a Push (Leader.ServeConn) or queue the Conn. A client
	// side (Accept nil) attaches its Pushes itself, after Open.
	Accept func(group string, c Conn)
	// Logf, if non-nil, receives diagnostics (killed streams, decode
	// errors).
	Logf func(format string, args ...any)
}

func (cfg MuxConfig) logf(format string, args ...any) {
	if cfg.Logf != nil {
		cfg.Logf(format, args...)
	}
}

// Mux multiplexes independent streams over one net.Conn. The client side
// opens streams with Open; the server side receives them through
// MuxConfig.Accept. Safe for concurrent use. Neither of its two locks is
// ever held while the other is taken, nor across a socket write or a Pull.
type Mux struct {
	cfg MuxConfig
	nc  net.Conn
	r   *bufio.Reader
	// The writer's own: buffer, spliced-frame prefix, Pull buffer.
	w      *bufio.Writer
	prefix [64]byte
	batch  []Outgoing
	// wtimeout is writeTimeout; a field only so a test can shorten it.
	wtimeout time.Duration

	// qmu guards ready (the streams with something to write, each once),
	// every stream's pull, pend, closed and byeDue, and werr: set by Close,
	// a hangup or a failed write, every later send returns it, and the
	// writer ends after the pass that sees it.
	qmu   sync.Mutex
	ready []*muxStream
	werr  error
	// kick holds the writer's wake-up token; wdone closes when it has ended.
	kick, wdone chan struct{}

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
// costs its opener one fd — cannot make the server hold unbounded sessions.
// Far above any in-tree client (the benchmark's generator spreads a few
// hundred sessions over one socket per core); a peer that opens more is cut
// off.
const maxStreams = 1 << 14

// writeTimeout bounds one writer pass on the shared socket. A peer that
// stops reading fills the socket buffer and would otherwise park the
// connection's writer for ever; past the bound the connection is torn
// down, which frees the writer, the read loop and the fd.
const writeTimeout = 10 * time.Second

// maxDeadStreams caps the tombstone set. Only a peer that keeps streaming
// into killed streams without ever processing the MuxClose replies can grow
// it; past the cap the connection itself is torn down — bounded memory
// beats unbounded hope.
const maxDeadStreams = 1 << 16

// muxStream is one session over a Mux, implementing Conn.
type muxStream struct {
	m      *Mux
	id     uint32
	group  string
	recvQ  *queue.Queue[wire.Envelope] // frames for Recv, until a Push is attached
	queued atomic.Bool                 // on the ready list, not yet taken by the writer

	// rmu serializes the stream's deliveries: it guards push and ended,
	// and is held across every call of push.
	rmu   sync.Mutex
	push  Push
	ended bool // the peer or the socket ended the stream

	// Under m.qmu: the attached outbox, sent frames the writer has not
	// taken, refusal of further sends, a MuxClose owed (sent after pend).
	pull           Pull
	pend           []Outgoing
	closed, byeDue bool
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
	m := &Mux{
		cfg:      cfg,
		nc:       nc,
		r:        bufio.NewReader(nc),
		w:        bufio.NewWriterSize(nc, DefaultWriteBuf),
		wtimeout: writeTimeout,
		kick:     make(chan struct{}, 1),
		wdone:    make(chan struct{}),
		streams:  make(map[uint32]*muxStream),
		dead:     make(map[uint32]struct{}),
	}
	go m.writeLoop()
	return m
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
	s := m.newStream(m.nextID.Add(1), group)
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	m.streams[s.id] = s
	m.mu.Unlock()
	return s, nil
}

func (m *Mux) newStream(id uint32, group string) *muxStream {
	return &muxStream{m: m, id: id, group: group, recvQ: queue.NewBounded[wire.Envelope](DefaultRecvWindow)}
}

// run is the demux read loop: it routes every inbound frame to its stream
// until the socket dies, then hangs up, tears every stream down and ends
// the streams the hangup cut off.
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
	m.mu.Lock()
	ended := slices.Collect(maps.Values(m.streams))
	clear(m.streams)
	m.mu.Unlock()
	for _, s := range ended {
		s.end()
	}
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
		s = m.newStream(f.Stream, f.Group)
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
		if m.closeStream(s, false) {
			s.end()
		}
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
	// by ReadRawFrame, so handing it on is safe.
	if err := s.deliver(f.Env); err != nil {
		if errors.Is(err, queue.ErrFull) {
			// Per-stream flow control: the stream's Recv is not keeping
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

// deliver hands one inbound frame to the stream's Push, or queues it for
// Recv while none is attached.
func (s *muxStream) deliver(e wire.Envelope) error {
	s.rmu.Lock()
	defer s.rmu.Unlock()
	if s.push == nil {
		return s.recvQ.Push(e)
	}
	s.push(e, true)
	return nil
}

// end records that the peer or the socket ended the stream and tells its
// Push; a Push attached later hears it after the queued frames.
func (s *muxStream) end() {
	s.rmu.Lock()
	defer s.rmu.Unlock()
	s.ended = true
	if s.push != nil {
		s.push(wire.Envelope{}, false)
	}
}

// Consume delivers what Recv would have returned, then hands the stream's
// later frames to push on the read loop, under rmu so that no frame
// overtakes the queued ones.
func (s *muxStream) Consume(push Push) {
	s.rmu.Lock()
	defer s.rmu.Unlock()
	queued, _ := s.recvQ.PopAll(nil)
	for _, e := range queued {
		push(e, true)
	}
	s.push = push
	if s.ended {
		push(wire.Envelope{}, false)
	}
}

// killStream unilaterally tears a live stream down: tombstone (so in-flight
// peer frames don't resurrect the ID), notify the peer, close the queue and
// end the stream for its consumer. The only error is tombstone-cap
// exhaustion, which is connection-fatal.
func (m *Mux) killStream(s *muxStream, cause *metrics.Counter) error {
	cause.Inc()
	if m.closeStream(s, true) {
		s.end()
	}
	m.mu.Lock()
	overflow := len(m.dead) > maxDeadStreams
	m.mu.Unlock()
	if overflow {
		mHangupTombstones.Inc()
		return fmt.Errorf("transport: mux peer ignored %d stream kills", maxDeadStreams)
	}
	return nil
}

// closeStream removes a stream, closes its receive queue and owes the peer
// a MuxClose, sent after what the stream had sent; it reports whether the
// stream was still live. tombstone records the ID as dead until the peer's
// own MuxClose arrives (only meaningful for unilateral kills on the
// accepting side — a client-side ID can't be resurrected because Accept is
// nil there). It never waits for the socket, nor calls the stream's Push: a
// leader closes an evicted member's stream holding its group lock.
func (m *Mux) closeStream(s *muxStream, tombstone bool) bool {
	m.mu.Lock()
	if m.streams[s.id] != s {
		m.mu.Unlock()
		return false
	}
	delete(m.streams, s.id)
	if tombstone && m.cfg.Accept != nil {
		m.dead[s.id] = struct{}{}
	}
	m.mu.Unlock()
	s.recvQ.Close()
	m.qmu.Lock()
	s.closed, s.byeDue = true, true
	m.qmu.Unlock()
	s.Wake()
	return true
}

// Close has the writer take a last pass, so a send that returned nil is not
// lost to a local hangup, then tears down the connection and every stream
// on it; the read loop then ends each stream still open, as on a peer
// hangup. A writer parked on a stalled peer holds Close up to writeTimeout.
func (m *Mux) Close() error {
	m.shut(ErrClosed)
	m.post()
	<-m.wdone
	return m.hangup()
}

// hangup tears down the connection and every stream on it without flushing.
// The read loop calls it on exit, so a socket whose peer hung up is released
// at once rather than held until its owner remembers to close it. The
// streams stay listed for the read loop to end.
func (m *Mux) hangup() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	for _, s := range m.streams {
		s.recvQ.Close()
	}
	m.mu.Unlock()
	m.shut(ErrClosed)
	err := m.nc.Close()
	m.post() // the writer's last pass finds the socket closed
	return err
}

// shut makes err what every later send returns, unless an error is set.
func (m *Mux) shut(err error) {
	m.qmu.Lock()
	if m.werr == nil {
		m.werr = err
	}
	m.qmu.Unlock()
}

// post hands the writer its one wake-up token, unless one is pending.
func (m *Mux) post() {
	select {
	case m.kick <- struct{}{}:
	default:
	}
}

// writeLoop is the socket's one writer: each pass writes the whole ready
// list under one deadline and flushes once; a failed write hangs up.
func (m *Mux) writeLoop() {
	defer close(m.wdone)
	var ready []*muxStream
	for last := false; !last; {
		<-m.kick
		m.qmu.Lock()
		ready, m.ready = m.ready, ready[:0]
		last = m.werr != nil
		m.qmu.Unlock()
		m.nc.SetWriteDeadline(time.Now().Add(m.wtimeout))
		var err error
		for _, s := range ready {
			if err = s.writeReady(); err != nil {
				break
			}
		}
		clear(ready)
		if err == nil && m.w.Buffered() > 0 {
			mFlushes.Inc()
			err = m.w.Flush()
		}
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				err = ErrClosed
			} else {
				mHangupWrite.Inc()
			}
			m.shut(err)
			m.hangup()
			return
		}
	}
}

// writeReady buffers one listed stream's sent frames, then what its Pull
// returns. A closed stream is not pulled and its MuxClose comes last, so no
// data frame can re-materialise the ID on a peer that has retired it.
func (s *muxStream) writeReady() error {
	m := s.m
	s.queued.Store(false)
	m.qmu.Lock()
	pull, pend, closed, bye := s.pull, s.pend, s.closed, s.byeDue
	s.pend, s.byeDue = nil, false
	m.qmu.Unlock()
	err := s.write(pend)
	switch {
	case err != nil:
		return err
	case bye:
		return wire.WriteMuxFrame(m.w, s.group, s.id, wire.MuxClose, wire.Envelope{})
	case closed || pull == nil:
		return nil
	}
	m.batch = pull(m.batch[:0])
	err = s.write(m.batch)
	clear(m.batch)
	return err
}

// write buffers frames for this stream; a shared pre-encoded envelope
// (Encoded.Frame) is spliced behind the stream's mux prefix, not re-encoded.
func (s *muxStream) write(frames []Outgoing) error {
	w := s.m.w
	for _, o := range frames {
		if o.Enc == nil {
			if err := wire.WriteMuxFrame(w, s.group, s.id, wire.MuxData, o.Env); err != nil {
				return err
			}
		} else {
			frame, err := o.Enc.Frame()
			if err != nil {
				return err
			}
			envBytes := frame[4:] // strip the shared encoding's length prefix
			if _, err := w.Write(wire.AppendMuxPrefix(s.m.prefix[:0], s.group, s.id, len(envBytes))); err != nil {
				return err
			}
			if _, err := w.Write(envBytes); err != nil {
				return err
			}
		}
		countSend(o.Envelope())
	}
	return nil
}

func (s *muxStream) Send(e wire.Envelope) error {
	return s.SendBatch([]Outgoing{{Env: e}})
}

func (s *muxStream) SendBatch(batch []Outgoing) error {
	m := s.m
	m.qmu.Lock()
	err := m.werr
	if err == nil && s.closed {
		err = ErrClosed
	}
	if err == nil {
		s.pend = append(s.pend, batch...)
	}
	m.qmu.Unlock()
	if err == nil {
		s.Wake()
	}
	return err
}

// Attach may follow a Send the writer is already taking, so the hook is
// handed over under qmu.
func (s *muxStream) Attach(pull Pull) {
	s.m.qmu.Lock()
	s.pull = pull
	s.m.qmu.Unlock()
}

// Wake lists the stream unless it is listed, and wakes the writer if the
// list was empty; a stream already listed costs one atomic swap.
func (s *muxStream) Wake() {
	if s.queued.Swap(true) {
		return
	}
	m := s.m
	m.qmu.Lock()
	m.ready = append(m.ready, s)
	first := len(m.ready) == 1
	m.qmu.Unlock()
	if first {
		m.post()
	}
}

func (s *muxStream) Recv() (wire.Envelope, error) {
	return translateErr(s.recvQ.Pop())
}

// Close tears down this stream only: what it had sent still goes out, then
// the peer is told (best-effort MuxClose), the receive queue closes, and the
// shared connection keeps serving every other stream.
func (s *muxStream) Close() error {
	s.m.closeStream(s, true) // idempotent: only a listed stream is closed
	return nil
}
