// Package transport provides the point-to-point links of the Enclaves
// architecture (Figure 1): an in-memory network for tests and examples and a
// TCP transport for deployment. Both are honest and carry no policy; the
// network of Section 3.1 — lossy, and controlled by a Dolev-Yao attacker who
// reads, drops, injects and replays frames — is faultnet.Link, which sits in
// front of any Conn this package produces.
//
// No sender waits for a peer: a TCP socket has one writer goroutine, and a
// sender with an outbox (a leader's member session) attaches it as a Pull
// that the writer drains and seals; a stalled socket leaves frames there.
// Nor does a receiver need a goroutine: the socket's one reader calls each
// stream's Push — a leader's session, a client's member; without a Push,
// frames queue for Recv.
package transport

import (
	"errors"
	"sync"
	"sync/atomic"

	"enclaves/internal/metrics"
	"enclaves/internal/queue"
	"enclaves/internal/wire"
)

// Transport-wide instruments, shared by the in-memory pipe and the TCP
// mux so a snapshot reports total wire traffic regardless of medium.
// Bytes count ciphertext payloads, the dominant term of frame size.
var (
	mFramesSent = metrics.NewCounter("transport_frames_sent_total")
	mFramesRecv = metrics.NewCounter("transport_frames_recv_total")
	mBytesSent  = metrics.NewCounter("transport_bytes_sent_total")
	mBytesRecv  = metrics.NewCounter("transport_bytes_recv_total")
)

func countSend(e wire.Envelope) {
	mFramesSent.Inc()
	mBytesSent.Add(uint64(len(e.Payload)))
}

func countRecv(e wire.Envelope) {
	mFramesRecv.Inc()
	mBytesRecv.Add(uint64(len(e.Payload)))
}

// ErrClosed is returned by operations on a closed connection or listener.
var ErrClosed = errors.New("transport: closed")

// Encoded is an envelope paired with its lazily computed wire frame, built
// once and shared across a fan-out: the leader relay wraps the envelope in
// one Encoded and hands the same value to every member's connection.
// Byte-stream transports encode the frame on first use and then write the
// identical bytes N times; message-oriented transports (pipes) never trigger
// the encoding at all. Safe for concurrent use; the frame bytes must be
// treated as immutable by every consumer.
type Encoded struct {
	env  wire.Envelope
	once sync.Once
	raw  []byte
	err  error
}

// NewEncoded wraps an envelope for encode-once fan-out.
func NewEncoded(env wire.Envelope) *Encoded { return &Encoded{env: env} }

// Frame returns the complete length-prefixed frame (wire.EncodeFrame),
// encoding on first call and reusing the bytes for every later one.
func (e *Encoded) Frame() ([]byte, error) {
	e.once.Do(func() { e.raw, e.err = wire.EncodeFrame(e.env) })
	return e.raw, e.err
}

// Outgoing is one element of a batched send: either a plain envelope or a
// shared pre-encoded frame (Enc non-nil, in which case Env is ignored).
type Outgoing struct {
	Env wire.Envelope
	Enc *Encoded
}

// Envelope returns the envelope being sent, whichever form carries it.
func (o Outgoing) Envelope() wire.Envelope {
	if o.Enc != nil {
		return o.Enc.env
	}
	return o.Env
}

// Pull is an outbox as its connection's writer sees it: called after a Wake,
// on the writer's goroutine and never concurrently, it appends every frame
// ready to go to buf. It may seal, so nothing calls it under a lock.
type Pull func(buf []Outgoing) []Outgoing

// Push is a connection's inbound side as its reader sees it: called per
// arrived frame, in order and never concurrently, then once with ok false
// when the peer or the socket ends the stream — a local Mux.Close included —
// but never for this side's own Close of the connection, which may run under
// a lock the Push takes. It must not wait on the network.
type Push func(e wire.Envelope, ok bool)

// Conn is a bidirectional, message-oriented point-to-point link.
// Implementations are safe for concurrent use.
type Conn interface {
	// Send queues one envelope without waiting for the peer. On a byte
	// stream it goes out in the writer's next flush; a failed flush hangs
	// the socket up, and every later send returns its error.
	Send(wire.Envelope) error
	// SendBatch queues the batch in order, as Send does.
	SendBatch([]Outgoing) error
	// Attach makes pull the connection's outbox, once, before any Wake.
	Attach(pull Pull)
	// Wake tells the writer the Pull has frames. It never blocks and never
	// calls the Pull, so a pusher may hold any lock of its own.
	Wake()
	// Consume makes push the connection's consumer, once, even after Recv
	// (a handshake): frames that arrived before it are pushed first, in order.
	Consume(push Push)
	// Recv blocks until an envelope arrives or the connection closes.
	Recv() (wire.Envelope, error)
	// Close tears the connection down; pending and future Recv calls
	// return ErrClosed.
	Close() error
}

// SendEach implements SendBatch by individual Sends, for message-oriented
// transports that have no flush boundary to batch against.
func SendEach(c Conn, batch []Outgoing) error {
	for _, o := range batch {
		if err := c.Send(o.Envelope()); err != nil {
			return err
		}
	}
	return nil
}

// Listener accepts inbound connections.
type Listener interface {
	// Accept blocks until a connection arrives.
	Accept() (Conn, error)
	// Addr returns the listen address.
	Addr() string
	// Close stops the listener.
	Close() error
}

// envQueue is the unbounded envelope FIFO backing in-memory links. Its
// unboundedness mirrors the asynchronous network of the formal model (the
// network never refuses a message); back-pressure is applied at the
// protocol layer, which allows only one outstanding AdminMsg per member.
type envQueue = queue.Queue[wire.Envelope]

func newQueue() *envQueue { return queue.New[wire.Envelope]() }

// Feed is Consume for a connection whose inbound frames wait in q: one
// goroutine pushes them, then the end once q closes, unless closedHere.
func Feed(q *queue.Queue[wire.Envelope], push Push, closedHere func() bool) {
	go func() {
		for {
			e, err := q.Pop()
			if err != nil {
				if !closedHere() {
					push(wire.Envelope{}, false)
				}
				return
			}
			push(e, true)
		}
	}()
}

// pipeConn is one endpoint of an in-memory duplex pipe.
type pipeConn struct {
	recv, peer *envQueue
	// done closes when either end closes; kick wakes the Pull's pump.
	done, kick chan struct{}
	closeOnce  *sync.Once
	closed     atomic.Bool // this endpoint's Close was called
}

var _ Conn = (*pipeConn)(nil)

// Pipe returns two connected in-memory endpoints: frames sent on one are
// received on the other, in order, with no interference.
func Pipe() (Conn, Conn) {
	qa, qb := newQueue(), newQueue()
	done, once := make(chan struct{}), new(sync.Once)
	return &pipeConn{recv: qa, peer: qb, done: done, closeOnce: once},
		&pipeConn{recv: qb, peer: qa, done: done, closeOnce: once}
}

func (c *pipeConn) Send(e wire.Envelope) error {
	if err := translatePushErr(c.peer.Push(e)); err != nil {
		return err
	}
	countSend(e)
	return nil
}

func (c *pipeConn) SendBatch(batch []Outgoing) error { return SendEach(c, batch) }

// Attach serves pull from one goroutine for this endpoint.
func (c *pipeConn) Attach(pull Pull) {
	c.kick = make(chan struct{}, 1)
	go func() {
		var buf []Outgoing
		for {
			select {
			case <-c.kick:
			case <-c.done:
				return
			}
			if buf = pull(buf[:0]); c.SendBatch(buf) != nil {
				return
			}
			clear(buf)
		}
	}()
}

func (c *pipeConn) Wake() {
	select {
	case c.kick <- struct{}{}:
	default: // a wake is already pending, or nothing is attached
	}
}

// Consume pushes from one goroutine for this endpoint.
func (c *pipeConn) Consume(push Push) {
	Feed(c.recv, func(e wire.Envelope, ok bool) {
		if ok {
			countRecv(e)
		}
		push(e, ok)
	}, c.closed.Load)
}

func (c *pipeConn) Recv() (wire.Envelope, error) {
	e, err := translateErr(c.recv.Pop())
	if err == nil {
		countRecv(e)
	}
	return e, err
}

func (c *pipeConn) Close() error {
	c.closed.Store(true)
	c.closeOnce.Do(func() {
		c.recv.Close()
		c.peer.Close()
		close(c.done)
	})
	return nil
}

// translateErr maps queue closure onto the transport's ErrClosed.
func translateErr(e wire.Envelope, err error) (wire.Envelope, error) {
	if errors.Is(err, queue.ErrClosed) {
		return e, ErrClosed
	}
	return e, err
}

func translatePushErr(err error) error {
	if errors.Is(err, queue.ErrClosed) {
		return ErrClosed
	}
	return err
}
