package transport

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"enclaves/internal/metrics"
	"enclaves/internal/wire"
)

// muxTestServer runs ServeMuxConn on every connection of a loopback
// listener, delivering accepted streams to a channel.
type acceptedStream struct {
	group string
	conn  Conn
}

func startMuxServer(t *testing.T, cfg MuxConfig) (addr string, accepted chan acceptedStream) {
	t.Helper()
	accepted = make(chan acceptedStream, 64)
	cfg.Accept = func(group string, c Conn) {
		accepted <- acceptedStream{group, c}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			nc, err := l.Accept()
			if err != nil {
				return
			}
			go ServeMuxConn(nc, cfg)
		}
	}()
	return l.Addr().String(), accepted
}

// TestMuxRoundTrip drives several streams in different groups over one
// socket and checks both directions plus isolation of delivery.
func TestMuxRoundTrip(t *testing.T) {
	addr, accepted := startMuxServer(t, MuxConfig{})
	m, err := DialMux(addr, MuxConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	const streams = 5
	client := make([]Conn, streams)
	server := make([]acceptedStream, streams)
	for i := range client {
		group := fmt.Sprintf("g%d", i)
		c, err := m.Open(group)
		if err != nil {
			t.Fatal(err)
		}
		client[i] = c
		if err := c.Send(env(wire.TypeAuthInitReq, "alice", fmt.Sprintf("hello-%d", i))); err != nil {
			t.Fatal(err)
		}
		select {
		case s := <-accepted:
			if s.group != group {
				t.Fatalf("stream %d accepted with group %q, want %q", i, s.group, group)
			}
			server[i] = s
		case <-time.After(2 * time.Second):
			t.Fatalf("stream %d not accepted", i)
		}
	}
	for i, s := range server {
		e, err := s.conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("hello-%d", i); string(e.Payload) != want {
			t.Fatalf("stream %d got %q want %q", i, e.Payload, want)
		}
		if err := s.conn.Send(env(wire.TypeAck, "leader", fmt.Sprintf("ack-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range client {
		e, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("ack-%d", i); string(e.Payload) != want {
			t.Fatalf("client stream %d got %q want %q", i, e.Payload, want)
		}
	}
}

// TestMuxSlowStreamKilled pins the per-group flow control: a stream whose
// Recv never drains overflows its bounded window (DefaultRecvWindow) and is
// killed — while a sibling stream on the same socket keeps flowing, i.e. no
// head-of-line blocking.
func TestMuxSlowStreamKilled(t *testing.T) {
	metrics.Enable()
	kills := mKillOverflow.Value()
	const window = DefaultRecvWindow
	addr, accepted := startMuxServer(t, MuxConfig{})
	m, err := DialMux(addr, MuxConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	slow, err := m.Open("slow")
	if err != nil {
		t.Fatal(err)
	}
	fast, err := m.Open("fast")
	if err != nil {
		t.Fatal(err)
	}
	// Flood the slow stream far past its window; the server never drains it.
	// A send may already see the kill: a closed stream sends nothing more.
	for i := 0; i < window*4; i++ {
		if err := slow.Send(env(wire.TypeAppData, "alice", "flood")); err != nil {
			if i <= window || !errors.Is(err, ErrClosed) {
				t.Fatalf("flood send %d: %v", i, err)
			}
			break
		}
	}
	var slowSrv, fastSrv acceptedStream
	for slowSrv.conn == nil || fastSrv.conn == nil {
		if err := fast.Send(env(wire.TypeAppData, "bob", "ping")); err != nil {
			t.Fatal(err)
		}
		select {
		case s := <-accepted:
			switch s.group {
			case "slow":
				slowSrv = s
			case "fast":
				fastSrv = s
			}
		case <-time.After(2 * time.Second):
			t.Fatal("streams not accepted")
		}
	}
	// The fast stream still round-trips even though its sibling is wedged.
	if err := fastSrv.conn.Send(env(wire.TypeAck, "leader", "pong")); err != nil {
		t.Fatal(err)
	}
	if _, err := fast.Recv(); err != nil {
		t.Fatalf("fast stream blocked by slow sibling: %v", err)
	}
	// The slow stream's server half was closed by flow control: after the
	// buffered frames drain, Recv reports closure.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := slowSrv.conn.Recv()
		if err != nil {
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("killed stream Recv: err = %v, want ErrClosed", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("overflowed stream was never killed")
		}
	}
	if mKillOverflow.Value() == kills {
		t.Error("the overflow kill was not counted")
	}
	// And the client half learns about it via the peer's MuxClose.
	deadline = time.Now().Add(5 * time.Second)
	for {
		_, err := slow.Recv()
		if err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client half of killed stream never closed")
		}
	}
}

// writeCounter counts the writes a Mux makes to its socket.
type writeCounter struct {
	net.Conn
	writes atomic.Int64
}

func (c *writeCounter) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestMuxGroupCommit pins the writer's pass on one P: sixteen streams made
// ready by one goroutine before the writer runs — a relay's fan-out shape —
// go out in one pass and share one socket write (two if the scheduler's
// fairness tick runs the writer early), not one write each. Send returns
// before anything is written, so the writes are counted once every frame
// has arrived.
func TestMuxGroupCommit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	addr, accepted := startMuxServer(t, MuxConfig{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	wc := &writeCounter{Conn: nc}
	m := NewMuxClient(wc, MuxConfig{})
	defer m.Close()

	const streams = 16
	conns := make([]Conn, streams)
	for i := range conns {
		if conns[i], err = m.Open(fmt.Sprintf("g%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range conns {
		if err := c.Send(env(wire.TypeAppData, "alice", fmt.Sprintf("g%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for range streams {
		select {
		case s := <-accepted:
			e, err := s.conn.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if string(e.Payload) != s.group {
				t.Fatalf("stream %s got %q", s.group, e.Payload)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("stream not accepted")
		}
	}
	if writes := wc.writes.Load(); writes > 2 {
		t.Fatalf("%d streams made ready at once took %d socket writes, want at most 2", streams, writes)
	}
}

// TestMuxCloseFlushes pins that a send which returned nil survives a local
// hangup: Close has the writer take a last pass over every stream with
// frames queued before it hangs up, so a member that sends and then leaves
// loses nothing.
func TestMuxCloseFlushes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	addr, accepted := startMuxServer(t, MuxConfig{})
	m, err := DialMux(addr, MuxConfig{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Open("b")
	if err != nil {
		t.Fatal(err)
	}
	// On one P the writer has not run yet when Close starts: both frames
	// are still queued.
	if err := a.Send(env(wire.TypeAppData, "alice", "a")); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(env(wire.TypeAppData, "bob", "b")); err != nil {
		t.Fatal(err)
	}
	m.Close()
	if err := a.Send(env(wire.TypeAppData, "alice", "late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after Close: err = %v, want ErrClosed", err)
	}
	for range 2 {
		select {
		case s := <-accepted:
			if e, err := s.conn.Recv(); err != nil || string(e.Payload) != s.group {
				t.Fatalf("stream %s: got %q, %v", s.group, e.Payload, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("a frame sent before Close never arrived")
		}
	}
}

// TestMuxStreamCloseIsLocal pins stream teardown: closing one stream closes
// both halves of it and nothing else.
func TestMuxStreamCloseIsLocal(t *testing.T) {
	addr, accepted := startMuxServer(t, MuxConfig{})
	m, err := DialMux(addr, MuxConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	a, err := m.Open("ga")
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Open("gb")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []Conn{a, b} {
		if err := c.Send(env(wire.TypeAuthInitReq, "alice", "hi")); err != nil {
			t.Fatal(err)
		}
	}
	srv := map[string]Conn{}
	for len(srv) < 2 {
		select {
		case s := <-accepted:
			srv[s.group] = s.conn
		case <-time.After(2 * time.Second):
			t.Fatal("streams not accepted")
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed stream Recv: err = %v, want ErrClosed", err)
	}
	// Nor does it send: a data frame after the MuxClose would re-open the
	// stream on the server. The failure is the stream's, not the socket's.
	if err := a.Send(env(wire.TypeAppData, "alice", "late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed stream Send: err = %v, want ErrClosed", err)
	}
	// Server half of a: drains the pending frame, then closes.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := srv["ga"].Recv()
		if err != nil {
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("peer of closed stream: err = %v, want ErrClosed", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server half of closed stream never closed")
		}
	}
	// Sibling stream is untouched.
	if err := srv["gb"].Send(env(wire.TypeAck, "leader", "still here")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); err != nil {
		t.Fatalf("sibling stream broken by Close: %v", err)
	}
	select {
	case s := <-accepted:
		t.Fatalf("a send on the closed stream re-opened it on the server (group %q)", s.group)
	default:
	}
}

// TestMuxEncodedFanout pins the encode-once splice path over mux: the same
// *Encoded delivered via SendBatch on several streams arrives intact on
// each.
func TestMuxEncodedFanout(t *testing.T) {
	addr, accepted := startMuxServer(t, MuxConfig{})
	m, err := DialMux(addr, MuxConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	enc := NewEncoded(env(wire.TypeAppData, "leader", "shared-fanout-bytes"))
	const n = 4
	conns := make([]Conn, n)
	for i := range conns {
		c, err := m.Open(fmt.Sprintf("g%d", i))
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
		if err := c.SendBatch([]Outgoing{{Enc: enc}, {Env: env(wire.TypeAck, "leader", "tail")}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		var s acceptedStream
		select {
		case s = <-accepted:
		case <-time.After(2 * time.Second):
			t.Fatal("stream not accepted")
		}
		for _, want := range []string{"shared-fanout-bytes", "tail"} {
			e, err := s.conn.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if string(e.Payload) != want {
				t.Fatalf("stream %s got %q want %q", s.group, e.Payload, want)
			}
		}
	}
}

// TestMuxConnCloseTearsDownStreams pins connection-level teardown: closing
// the Mux closes every stream on both sides.
func TestMuxConnCloseTearsDownStreams(t *testing.T) {
	addr, accepted := startMuxServer(t, MuxConfig{})
	m, err := DialMux(addr, MuxConfig{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.Open("g0")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(env(wire.TypeAuthInitReq, "alice", "hi")); err != nil {
		t.Fatal(err)
	}
	var s acceptedStream
	select {
	case s = <-accepted:
	case <-time.After(2 * time.Second):
		t.Fatal("stream not accepted")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("stream Recv after Mux.Close: err = %v, want ErrClosed", err)
	}
	if err := c.Send(env(wire.TypeAppData, "alice", "x")); err == nil {
		t.Fatal("Send after Mux.Close succeeded")
	}
	// Server side unblocks too once it drains the pending frame.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := s.conn.Recv(); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server stream never closed after client Mux.Close")
		}
	}
	if _, err := m.Open("g1"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Open after Close: err = %v, want ErrClosed", err)
	}
}

// TestMuxConcurrentStreams hammers one socket from many goroutines — run
// under -race this is the data-race check for the shared writer and stream
// table.
func TestMuxConcurrentStreams(t *testing.T) {
	addr, accepted := startMuxServer(t, MuxConfig{})
	// Echo every accepted stream until it closes.
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for s := range accepted {
			wg.Add(1)
			go func(c Conn) {
				defer wg.Done()
				for {
					e, err := c.Recv()
					if err != nil {
						return
					}
					if err := c.Send(e); err != nil {
						return
					}
				}
			}(s.conn)
		}
		wg.Wait()
	}()

	m, err := DialMux(addr, MuxConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const streams, msgs = 16, 50
	var wg sync.WaitGroup
	errCh := make(chan error, streams)
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := m.Open(fmt.Sprintf("g%d", i%4))
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			for j := 0; j < msgs; j++ {
				want := fmt.Sprintf("s%d-m%d", i, j)
				if err := c.Send(env(wire.TypeAppData, "alice", want)); err != nil {
					errCh <- fmt.Errorf("stream %d send: %w", i, err)
					return
				}
				e, err := c.Recv()
				if err != nil {
					errCh <- fmt.Errorf("stream %d recv: %w", i, err)
					return
				}
				if string(e.Payload) != want {
					errCh <- fmt.Errorf("stream %d got %q want %q", i, e.Payload, want)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	m.Close()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	close(accepted)
	<-done
}

// TestPullRunsOnTheWriter pins the outbox contract on both media: Wake never
// runs the Pull itself — a producer wakes holding the lock its Pull takes,
// which would deadlock otherwise — and the writer sends what each Pull
// returns, in order, on the stream it is attached to.
func TestPullRunsOnTheWriter(t *testing.T) {
	pipe := func(t *testing.T) (Conn, Conn) { return Pipe() }
	mux := func(t *testing.T) (Conn, Conn) {
		addr, accepted := startMuxServer(t, MuxConfig{})
		m, err := DialMux(addr, MuxConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		c, err := m.Open("g0")
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Send(env(wire.TypeAuthInitReq, "alice", "hello")); err != nil {
			t.Fatal(err)
		}
		s := <-accepted
		if _, err := s.conn.Recv(); err != nil {
			t.Fatal(err)
		}
		return s.conn, c
	}
	for name, pair := range map[string]func(*testing.T) (Conn, Conn){"pipe": pipe, "mux": mux} {
		t.Run(name, func(t *testing.T) {
			a, b := pair(t)
			var (
				mu     sync.Mutex
				queued []wire.Envelope
			)
			a.Attach(func(buf []Outgoing) []Outgoing {
				mu.Lock()
				defer mu.Unlock()
				for _, e := range queued {
					buf = append(buf, Outgoing{Env: e})
				}
				queued = queued[:0]
				return buf
			})
			const n = 200
			for i := range n {
				mu.Lock()
				queued = append(queued, env(wire.TypeAppData, "leader", fmt.Sprint(i)))
				a.Wake()
				mu.Unlock()
			}
			for i := range n {
				e, err := b.Recv()
				if err != nil {
					t.Fatal(err)
				}
				if string(e.Payload) != fmt.Sprint(i) {
					t.Fatalf("frame %d carried %q", i, e.Payload)
				}
			}
		})
	}
}
