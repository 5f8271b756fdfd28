// Package transport provides the point-to-point links of the Enclaves
// architecture (Figure 1): an in-memory network for tests and examples and a
// TCP transport for deployment. Both are honest and carry no policy; the
// network of Section 3.1 — lossy, and controlled by a Dolev-Yao attacker who
// reads, drops, injects and replays frames — is faultnet.Link, which sits in
// front of any Conn this package produces.
package transport

import (
	"errors"
	"sync"

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

// Conn is a bidirectional, message-oriented point-to-point link.
// Implementations are safe for concurrent use.
type Conn interface {
	// Send transmits one envelope. On a byte stream a nil return means the
	// frame is in the socket's group commit, not yet written: a failure of
	// that flush hangs the socket up, which every stream on it sees.
	Send(wire.Envelope) error
	// SendBatch transmits the batch in order, as Send does, behind one
	// flush shared with the socket's other streams, so a drained outbox —
	// and a fan-out's other members on the same socket — cost one syscall
	// instead of one per frame.
	SendBatch([]Outgoing) error
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

// pipeConn is one endpoint of an in-memory duplex pipe.
type pipeConn struct {
	recv *envQueue
	peer *envQueue

	closeOnce sync.Once
}

var _ Conn = (*pipeConn)(nil)

// Pipe returns two connected in-memory endpoints: frames sent on one are
// received on the other, in order, with no interference.
func Pipe() (Conn, Conn) {
	qa, qb := newQueue(), newQueue()
	return &pipeConn{recv: qa, peer: qb}, &pipeConn{recv: qb, peer: qa}
}

func (c *pipeConn) Send(e wire.Envelope) error {
	if err := translatePushErr(c.peer.Push(e)); err != nil {
		return err
	}
	countSend(e)
	return nil
}

func (c *pipeConn) SendBatch(batch []Outgoing) error { return SendEach(c, batch) }

func (c *pipeConn) Recv() (wire.Envelope, error) {
	e, err := translateErr(c.recv.Pop())
	if err == nil {
		countRecv(e)
	}
	return e, err
}

func (c *pipeConn) Close() error {
	c.closeOnce.Do(func() {
		c.recv.Close()
		c.peer.Close()
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
