package transport

import (
	"errors"
	"sync"
	"testing"
	"time"

	"enclaves/internal/wire"
)

func env(t wire.Type, sender, payload string) wire.Envelope {
	return wire.Envelope{Type: t, Sender: sender, Receiver: "peer", Payload: []byte(payload)}
}

func TestPipeRoundTrip(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	if err := a.Send(env(wire.TypeAck, "a", "hello")); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Payload) != "hello" {
		t.Errorf("payload = %q", got.Payload)
	}
	// And the reverse direction.
	if err := b.Send(env(wire.TypeAck, "b", "world")); err != nil {
		t.Fatal(err)
	}
	got, err = a.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Payload) != "world" {
		t.Errorf("payload = %q", got.Payload)
	}
}

func TestPipePreservesOrder(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	for i := 0; i < 100; i++ {
		if err := a.Send(env(wire.TypeAppData, "a", string(rune('A'+i%26)))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		got, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if want := string(rune('A' + i%26)); string(got.Payload) != want {
			t.Fatalf("frame %d: got %q want %q", i, got.Payload, want)
		}
	}
}

func TestPipeCloseUnblocksRecv(t *testing.T) {
	a, b := Pipe()
	done := make(chan error, 1)
	go func() {
		_, err := b.Recv()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	a.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("Recv after close: err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on close")
	}
	if err := a.Send(env(wire.TypeAck, "a", "x")); !errors.Is(err, ErrClosed) {
		t.Errorf("Send after close: err = %v, want ErrClosed", err)
	}
}

func TestPipeConcurrentSenders(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	const n = 50
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := a.Send(env(wire.TypeAppData, "a", "m")); err != nil {
				t.Errorf("send: %v", err)
			}
		}()
	}
	for i := 0; i < n; i++ {
		if _, err := b.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

func TestMemNetworkDialListen(t *testing.T) {
	n := NewMemNetwork()
	defer n.Close()
	l, err := n.Listen("leader")
	if err != nil {
		t.Fatal(err)
	}
	if l.Addr() != "leader" {
		t.Errorf("Addr = %q", l.Addr())
	}

	type result struct {
		c   Conn
		err error
	}
	accepted := make(chan result, 1)
	go func() {
		c, err := l.Accept()
		accepted <- result{c, err}
	}()

	client, err := n.Dial("leader")
	if err != nil {
		t.Fatal(err)
	}
	r := <-accepted
	if r.err != nil {
		t.Fatal(r.err)
	}
	if err := client.Send(env(wire.TypeAck, "c", "ping")); err != nil {
		t.Fatal(err)
	}
	got, err := r.c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Payload) != "ping" {
		t.Errorf("payload = %q", got.Payload)
	}
}

func TestMemNetworkDialUnknown(t *testing.T) {
	n := NewMemNetwork()
	defer n.Close()
	if _, err := n.Dial("nobody"); err == nil {
		t.Error("dial to unknown address succeeded")
	}
}

func TestMemNetworkDuplicateListen(t *testing.T) {
	n := NewMemNetwork()
	defer n.Close()
	if _, err := n.Listen("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("x"); err == nil {
		t.Error("duplicate listen succeeded")
	}
}

func TestMemNetworkListenerClose(t *testing.T) {
	n := NewMemNetwork()
	defer n.Close()
	l, _ := n.Listen("x")
	done := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		done <- err
	}()
	l.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("Accept after close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Accept did not unblock")
	}
	// Address is released.
	if _, err := n.Listen("x"); err != nil {
		t.Errorf("re-listen after close: %v", err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	type result struct {
		c   Conn
		err error
	}
	accepted := make(chan result, 1)
	go func() {
		c, err := l.Accept()
		accepted <- result{c, err}
	}()

	client, err := DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// The server sees the session when its first frame arrives.
	want := env(wire.TypeAuthInitReq, "alice", "payload-bytes")
	if err := client.Send(want); err != nil {
		t.Fatal(err)
	}
	r := <-accepted
	if r.err != nil {
		t.Fatal(r.err)
	}
	defer r.c.Close()
	got, err := r.c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != want.Type || got.Sender != want.Sender || string(got.Payload) != string(want.Payload) {
		t.Errorf("got %v want %v", got, want)
	}

	// Server replies.
	if err := r.c.Send(env(wire.TypeAck, "leader", "ok")); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Recv(); err != nil {
		t.Fatal(err)
	}
}

func TestTCPCloseUnblocksRecv(t *testing.T) {
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err == nil {
			c.Close()
		}
	}()
	client, err := DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Send(env(wire.TypeAuthInitReq, "alice", "hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Recv(); err == nil {
		t.Error("Recv on closed TCP conn succeeded")
	}
}
