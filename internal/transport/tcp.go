package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"enclaves/internal/queue"
)

// DefaultWriteBuf sizes a socket's buffered writer, whose one flush per
// writer pass becomes a single write syscall when it holds what a fan-out
// puts on the socket. 32 KiB holds hundreds of admin frames or a handful of
// full-MTU application frames without approaching the per-connection memory
// budget of a many-thousand-connection daemon.
const DefaultWriteBuf = 32 << 10

// setNoDelay disables Nagle's algorithm on TCP connections. Go's net package
// does this by default, but the transport's write-coalescing contract depends
// on it (a flush must hit the wire now, not after a delayed-ack timer), so it
// is set explicitly rather than inherited from a default that could change.
func setNoDelay(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
}

// soleStream is the one stream of a single-session connection: a mux stream
// like any other, except that closing it hangs up the socket it alone uses.
// The stream closes first, so its own Close never reaches its Push.
type soleStream struct {
	Conn
	m *Mux
}

func (s soleStream) Close() error {
	s.Conn.Close()
	return s.m.Close()
}

// NewNetConn wraps an established net.Conn (TCP, Unix socket, net.Pipe) as a
// single-session connection: a client Mux carrying one stream with no group
// label, which the server routes to its default (or only) group.
func NewNetConn(c net.Conn) (Conn, error) {
	m := NewMuxClient(c, MuxConfig{})
	s, err := m.Open("")
	if err != nil {
		m.Close()
		return nil, err
	}
	return soleStream{Conn: s, m: m}, nil
}

// DialTCP connects a single session to a TCP endpoint (see NewNetConn).
func DialTCP(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return NewNetConn(c)
}

// MuxServer serves sockets as mux connections: the one accept-and-serve
// policy behind both a one-leader listener (ListenTCP) and a multi-tenant
// directory. It owns every socket it accepted — Close hangs them all up —
// but not the listeners, which stay their callers'.
type MuxServer struct {
	cfg MuxConfig
	wg  sync.WaitGroup

	mu     sync.Mutex
	socks  map[net.Conn]struct{}
	closed bool
}

// NewMuxServer returns a server that hands every stream opened on any of its
// sockets to cfg.Accept.
func NewMuxServer(cfg MuxConfig) *MuxServer {
	return &MuxServer{cfg: cfg, socks: make(map[net.Conn]struct{})}
}

// Serve accepts sockets from nl and serves each on its own goroutine until
// nl fails (the error is returned) or is closed or Close is called (nil).
func (s *MuxServer) Serve(nl net.Listener) error {
	for {
		nc, err := nl.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close() // accepted while Close was running
			return nil
		}
		s.socks[nc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			ServeMuxConn(nc, s.cfg)
			s.mu.Lock()
			delete(s.socks, nc)
			s.mu.Unlock()
		}()
	}
}

// Close hangs up every socket (which closes the streams on it) and waits for
// their read loops. Serve returns once its listener is closed too.
func (s *MuxServer) Close() {
	s.mu.Lock()
	s.closed = true
	for nc := range s.socks {
		nc.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// tcpListener is a MuxServer behind the Listener interface: Accept yields
// the streams opened on any accepted socket.
type tcpListener struct {
	l       net.Listener
	srv     *MuxServer
	streams *queue.Queue[Conn]
	// err is what Accept reports once serving has ended: ErrClosed after
	// Close, otherwise the net error that stopped the accept loop. Written
	// before streams closes, read after.
	err error
}

var _ Listener = (*tcpListener)(nil)

// ListenTCP starts a TCP listener on addr (e.g. "127.0.0.1:0") for one
// leader: the one-group case of a directory, so stream group labels are
// ignored — whatever a client names, this leader is the group it reached.
func ListenTCP(addr string) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	t := &tcpListener{l: l, streams: queue.New[Conn]()}
	t.srv = NewMuxServer(MuxConfig{Accept: func(_ string, c Conn) {
		if t.streams.Push(c) != nil {
			c.Close() // serving has ended; nobody will take the stream
		}
	}})
	go func() {
		if t.err = t.srv.Serve(l); t.err == nil {
			t.err = ErrClosed
		}
		t.streams.Close()
	}()
	return t, nil
}

// Accept blocks until a client opens a stream. After Close — including a
// Close that lands while Accept is blocked — it returns ErrClosed, the same
// stable sentinel every transport uses, rather than a raw net error string.
func (t *tcpListener) Accept() (Conn, error) {
	c, err := t.streams.Pop()
	if err != nil {
		return nil, t.err
	}
	return c, nil
}

func (t *tcpListener) Addr() string { return t.l.Addr().String() }

// Close stops accepting, hangs up every socket and waits for their read
// loops.
func (t *tcpListener) Close() error {
	err := t.l.Close()
	t.srv.Close()
	return err
}
