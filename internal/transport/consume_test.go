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

// TestConsume pins the read-side hook on the pipe and on a mux stream:
// frames that arrived before Consume are pushed first and in order, then the
// later ones; the stream's end is pushed once when the peer closes it, and
// never when this side closes it.
func TestConsume(t *testing.T) {
	for name, pair := range earlyPairs {
		consume := func(server Conn) chan string {
			pushed := make(chan string, 16)
			server.Consume(func(e wire.Envelope, ok bool) {
				if !ok {
					pushed <- "end"
					return
				}
				pushed <- string(e.Payload)
			})
			return pushed
		}
		expect := func(t *testing.T, pushed chan string, want string) {
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
		expectNothing := func(t *testing.T, pushed chan string) {
			t.Helper()
			select {
			case got := <-pushed:
				t.Fatalf("pushed %q, want nothing", got)
			case <-time.After(100 * time.Millisecond):
			}
		}
		t.Run(name+"/peer close", func(t *testing.T) {
			client, server := pair(t)
			pushed := consume(server)
			sendRange(t, client, 5, 10)
			for i := range 10 {
				expect(t, pushed, strconv.Itoa(i))
			}
			client.Close()
			expect(t, pushed, "end")
			expectNothing(t, pushed)
		})
		t.Run(name+"/local close", func(t *testing.T) {
			client, server := pair(t)
			pushed := consume(server)
			for i := range 5 {
				expect(t, pushed, strconv.Itoa(i))
			}
			server.Close()
			client.Close()
			expectNothing(t, pushed)
		})
	}
}
