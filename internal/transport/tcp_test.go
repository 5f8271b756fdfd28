package transport

import (
	"errors"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"enclaves/internal/metrics"
	"enclaves/internal/wire"
)

// TestTCPAcceptAfterClose pins the shutdown sentinel: Accept on a closed
// listener returns ErrClosed, whether the Close lands before the Accept call
// or while one is blocked.
func TestTCPAcceptAfterClose(t *testing.T) {
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked Accept after Close: err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Accept did not unblock on Close")
	}
	// Accept after Close also returns the sentinel, stably.
	for i := 0; i < 3; i++ {
		if _, err := l.Accept(); !errors.Is(err, ErrClosed) {
			t.Fatalf("Accept #%d after Close: err = %v, want ErrClosed", i, err)
		}
	}
}

// TestTCPCloseUnblocksInflightRecv pins the conn-side shutdown edge: a Recv
// blocked on the socket must unblock when the connection is closed locally,
// and report ErrClosed rather than a raw net error.
func TestTCPCloseUnblocksInflightRecv(t *testing.T) {
	client, server := tcpPair(t)
	defer server.Close()

	errCh := make(chan error, 1)
	go func() {
		_, err := client.Recv()
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("in-flight Recv after local Close: err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
	// Subsequent operations stay on the sentinel.
	if _, err := client.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv after Close: err = %v, want ErrClosed", err)
	}
	if err := client.Send(env(wire.TypeAck, "a", "x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after Close: err = %v, want ErrClosed", err)
	}
}

// TestTCPCloseIsErrClosedOnBothSides pins the one-framing contract that
// replaced "a peer's close is io.EOF": whichever side hangs up, the other
// side's Recv reports the transport's own sentinel, as on every other link.
func TestTCPCloseIsErrClosedOnBothSides(t *testing.T) {
	for _, closer := range []string{"client", "server"} {
		t.Run(closer+" closes", func(t *testing.T) {
			client, server := tcpPair(t)
			hangup, peer := client, server
			if closer == "server" {
				hangup, peer = server, client
			}
			defer peer.Close()
			if err := hangup.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := peer.Recv(); !errors.Is(err, ErrClosed) {
				t.Fatalf("Recv after the %s closed: err = %v, want ErrClosed", closer, err)
			}
		})
	}
}

// tcpPair returns a connected (client, server) conn pair over loopback. The
// server half exists once the client's first frame arrives, so the pair is
// made by sending one and receiving it.
func tcpPair(t *testing.T) (Conn, Conn) {
	t.Helper()
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	client, err := DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Send(env(wire.TypeAuthInitReq, "alice", "hello")); err != nil {
		t.Fatal(err)
	}
	server, err := l.Accept()
	if err != nil {
		client.Close()
		t.Fatal(err)
	}
	if _, err := server.Recv(); err != nil {
		t.Fatal(err)
	}
	return client, server
}

// closeSpy reports when the Mux under test closes its socket.
type closeSpy struct {
	net.Conn
	closed chan struct{}
	once   sync.Once
}

func (c *closeSpy) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// spiedPair returns the two ends of a loopback TCP connection, the first
// wrapped in a close-spy.
func spiedPair(t *testing.T) (*closeSpy, net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	far, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	near, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		near.Close()
		far.Close()
	})
	return &closeSpy{Conn: near, closed: make(chan struct{})}, far
}

func (c *closeSpy) wait(t *testing.T, what string) {
	t.Helper()
	select {
	case <-c.closed:
	case <-time.After(2 * time.Second):
		t.Fatalf("%s: socket never closed", what)
	}
}

// TestMuxHangupClosesSocket is the fd-leak regression: when the peer hangs
// up, the read loop's exit must close this side's socket — on the serving
// side (a daemon used to keep one fd in CLOSE_WAIT per departed client until
// the whole directory closed) and on the dialing side alike.
func TestMuxHangupClosesSocket(t *testing.T) {
	t.Run("server", func(t *testing.T) {
		spy, far := spiedPair(t)
		accepted := make(chan Conn, 1)
		served := make(chan error, 1)
		go func() {
			served <- ServeMuxConn(spy, MuxConfig{Accept: func(_ string, c Conn) { accepted <- c }})
		}()
		m := NewMuxClient(far, MuxConfig{})
		c, err := m.Open("g0")
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Send(env(wire.TypeAuthInitReq, "alice", "hi")); err != nil {
			t.Fatal(err)
		}
		<-accepted
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		spy.wait(t, "server side after client Mux.Close")
		<-served
	})
	t.Run("client", func(t *testing.T) {
		spy, far := spiedPair(t)
		m := NewMuxClient(spy, MuxConfig{})
		defer m.Close()
		far.Close()
		spy.wait(t, "client side after server hangup")
		if _, err := m.Open("g0"); !errors.Is(err, ErrClosed) {
			t.Fatalf("Open on a hung-up Mux: err = %v, want ErrClosed", err)
		}
	})
}

// TestMuxStalledPeer pins the two halves of slow-peer handling on a socket
// whose peer has stopped reading, so a write is parked under the writer
// lock: closing a stream returns at once (a leader does it holding its group
// lock), and the parked write fails at the write timeout, which hangs up the
// socket instead of holding it and every writer for ever.
func TestMuxStalledPeer(t *testing.T) {
	metrics.Enable()
	hangups := mHangupWrite.Value()
	near, far := net.Pipe() // unbuffered: a write parks until far reads, and nothing does
	defer far.Close()
	spy := &closeSpy{Conn: near, closed: make(chan struct{})}
	m := NewMuxClient(spy, MuxConfig{})
	defer m.Close()
	m.wtimeout = 300 * time.Millisecond
	c, err := m.Open("g0")
	if err != nil {
		t.Fatal(err)
	}
	sent := make(chan error, 1)
	start := time.Now()
	go func() { sent <- c.Send(env(wire.TypeAuthInitReq, "alice", "never read")) }()
	time.Sleep(50 * time.Millisecond) // let the write park

	closed := make(chan struct{})
	go func() { c.Close(); close(closed) }()
	select {
	case <-closed:
	case <-sent:
		t.Fatal("the send did not park; the test no longer exercises a held writer lock")
	case <-time.After(200 * time.Millisecond):
		t.Fatal("stream Close waited for a write parked on a stalled peer")
	}

	select {
	case err := <-sent:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("parked send: err = %v, want a deadline error", err)
		}
		if d := time.Since(start); d < m.wtimeout {
			t.Fatalf("parked send failed after %v, before the %v write timeout", d, m.wtimeout)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a write parked on a stalled peer never timed out")
	}
	spy.wait(t, "after a write timeout")
	if _, err := m.Open("g0"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Open after a write timeout: err = %v, want ErrClosed", err)
	}
	if mHangupWrite.Value() == hangups {
		t.Error("the write-timeout hangup was not counted")
	}
}

// TestMuxStreamCap pins the per-socket session bound: a peer that holds
// maxStreams streams open and opens one more is cut off, socket closed.
func TestMuxStreamCap(t *testing.T) {
	spy, far := spiedPair(t)
	served := make(chan error, 1)
	go func() { served <- ServeMuxConn(spy, MuxConfig{Accept: func(string, Conn) {}}) }()
	m := NewMuxClient(far, MuxConfig{})
	defer m.Close()
	for i := 0; i <= maxStreams; i++ {
		c, err := m.Open("g0")
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Send(env(wire.TypeAuthInitReq, "alice", "")); err != nil {
			break // the server hung up on the stream past the cap
		}
	}
	select {
	case err := <-served:
		if err == nil || !strings.Contains(err.Error(), "streams") {
			t.Fatalf("ServeMuxConn: err = %v, want the stream-cap error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("ServeMuxConn kept serving a peer with more than %d streams", maxStreams)
	}
	spy.wait(t, "past the stream cap")
}

// TestServeMuxConnRejectsBareEnvelope pins the end of first-frame sniffing:
// a connection whose first frame is a bare envelope, the framing a pre-mux
// client spoke, is a framing error — no stream is accepted and the socket is
// closed.
func TestServeMuxConnRejectsBareEnvelope(t *testing.T) {
	spy, far := spiedPair(t)
	served := make(chan error, 1)
	go func() {
		served <- ServeMuxConn(spy, MuxConfig{Accept: func(group string, _ Conn) {
			t.Errorf("stream accepted (group %q) from a bare-envelope client", group)
		}})
	}()
	bare, err := wire.EncodeFrame(env(wire.TypeAuthInitReq, "alice", "plain-first-frame"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := far.Write(bare); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-served:
		if !errors.Is(err, wire.ErrBadFrame) {
			t.Fatalf("ServeMuxConn: err = %v, want wire.ErrBadFrame", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("ServeMuxConn kept serving a bare-envelope client")
	}
	spy.wait(t, "after a non-mux first frame")
}

// BenchmarkTCPSendBatch measures the batched-flush path of a single-session
// connection over a real loopback socket with the default write buffer — the
// "after" side of the EXPERIMENTS.md sized-writer comparison, now one stream
// of a mux.
func BenchmarkTCPSendBatch(b *testing.B) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		nc, err := l.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		buf := make([]byte, 64<<10)
		for {
			if _, err := nc.Read(buf); err != nil {
				return
			}
		}
	}()
	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	c, err := NewNetConn(nc)
	if err != nil {
		b.Fatal(err)
	}

	const batchSize = 64
	e := env(wire.TypeAppData, "alice", "0123456789abcdef0123456789abcdef")
	batch := make([]Outgoing, batchSize)
	for i := range batch {
		batch[i] = Outgoing{Enc: NewEncoded(e)}
	}
	b.SetBytes(int64(batchSize * len(e.Payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.SendBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	c.Close()
	wg.Wait()
}
