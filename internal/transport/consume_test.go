package transport

import (
	"strconv"
	"testing"
	"time"

	"enclaves/internal/wire"
)

// sendRange sends frames whose payloads are the numbers from..to-1.
func sendRange(t *testing.T, c Conn, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := c.Send(env(wire.TypeAppData, "client", strconv.Itoa(i))); err != nil {
			t.Fatal(err)
		}
	}
}

// earlyPairs build a connected pair after the client has sent frames 0..4,
// which have all reached the server end before anything consumes them.
var earlyPairs = map[string]func(t *testing.T) (client, server Conn){
	"pipe": func(t *testing.T) (Conn, Conn) {
		client, server := Pipe()
		sendRange(t, client, 0, 5)
		return client, server
	},
	"mux": func(t *testing.T) (Conn, Conn) {
		addr, accepted := startMuxServer(t, MuxConfig{})
		m, err := DialMux(addr, MuxConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		client, err := m.Open("g")
		if err != nil {
			t.Fatal(err)
		}
		sendRange(t, client, 0, 5)
		var server Conn
		select {
		case a := <-accepted:
			server = a.conn
		case <-time.After(5 * time.Second):
			t.Fatal("stream not accepted")
		}
		for deadline := time.Now().Add(5 * time.Second); server.(*muxStream).recvQ.Len() < 5; {
			if time.Now().After(deadline) {
				t.Fatal("early frames never arrived")
			}
			time.Sleep(time.Millisecond)
		}
		return client, server
	},
}

// consumeInto attaches a Push that reports each payload, and "end" for the
// end of the stream.
func consumeInto(c Conn) chan string {
	pushed := make(chan string, 16)
	c.Consume(func(e wire.Envelope, ok bool) {
		if !ok {
			pushed <- "end"
			return
		}
		pushed <- string(e.Payload)
	})
	return pushed
}

func expectPush(t *testing.T, pushed chan string, want string) {
	t.Helper()
	select {
	case got := <-pushed:
		if got != want {
			t.Fatalf("pushed %q, want %q", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("nothing pushed, want %q", want)
	}
}

func expectNoPush(t *testing.T, pushed chan string) {
	t.Helper()
	select {
	case got := <-pushed:
		t.Fatalf("pushed %q, want nothing", got)
	case <-time.After(100 * time.Millisecond):
	}
}

// TestConsume pins the read-side hook on the pipe and on a mux stream:
// frames that arrived before Consume are pushed first and in order, then the
// later ones; the stream's end is pushed once when the peer closes it, and
// never when this side closes it.
func TestConsume(t *testing.T) {
	for name, pair := range earlyPairs {
		t.Run(name+"/peer close", func(t *testing.T) {
			client, server := pair(t)
			pushed := consumeInto(server)
			sendRange(t, client, 5, 10)
			for i := range 10 {
				expectPush(t, pushed, strconv.Itoa(i))
			}
			client.Close()
			expectPush(t, pushed, "end")
			expectNoPush(t, pushed)
		})
		t.Run(name+"/local close", func(t *testing.T) {
			client, server := pair(t)
			pushed := consumeInto(server)
			for i := range 5 {
				expectPush(t, pushed, strconv.Itoa(i))
			}
			server.Close()
			client.Close()
			expectNoPush(t, pushed)
		})
	}
}

// TestConsumeLocalMuxClose pins the client side: closing the whole Mux ends
// every stream still open on it, after the frames it already delivered, as
// a peer hangup would; a stream's own Close never reaches its Push, and
// neither does closing a single-session connection, whose one stream closes
// before its socket.
func TestConsumeLocalMuxClose(t *testing.T) {
	addr, accepted := startMuxServer(t, MuxConfig{})
	m, err := DialMux(addr, MuxConfig{})
	if err != nil {
		t.Fatal(err)
	}
	open := func() (client, server Conn, pushed chan string) {
		t.Helper()
		client, err := m.Open("g")
		if err != nil {
			t.Fatal(err)
		}
		pushed = consumeInto(client)
		sendRange(t, client, 0, 1) // materializes the stream on the server
		select {
		case a := <-accepted:
			return client, a.conn, pushed
		case <-time.After(5 * time.Second):
			t.Fatal("stream not accepted")
		}
		return nil, nil, nil
	}
	a, _, pushedA := open()
	_, serverB, pushedB := open()
	sendRange(t, serverB, 0, 3)
	for i := range 3 {
		expectPush(t, pushedB, strconv.Itoa(i))
	}

	a.Close()
	expectNoPush(t, pushedA)
	m.Close()
	expectPush(t, pushedB, "end")
	expectNoPush(t, pushedB)
	expectNoPush(t, pushedA)

	sole, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	pushedSole := consumeInto(sole)
	sendRange(t, sole, 0, 1)
	<-accepted
	sole.Close()
	expectNoPush(t, pushedSole)
}
