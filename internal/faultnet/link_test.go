package faultnet

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"enclaves/internal/transport"
	"enclaves/internal/wire"
)

// The adversary half of the Link — capture, filter, inject, replay — on a
// zero Plan, over both media the Link can sit in front of. These are the
// cases the in-memory adversarial hub's own tests pinned before the two
// networks became one, plus the situations checker-driven attack scripts hit
// when an endpoint tears the session down while the adversary is still
// acting.

func env(t wire.Type, sender, payload string) wire.Envelope {
	return wire.Envelope{Type: t, Sender: sender, Receiver: "peer", Payload: []byte(payload)}
}

// tcpPair returns the two ends of one established TCP loopback session. The
// server materializes a stream on its first frame, so the greeting crosses
// before any Link is in place to record it.
func tcpPair(t *testing.T) (client, server transport.Conn) {
	t.Helper()
	l, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	client, err = transport.DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	if err := client.Send(env(wire.TypeAck, "a", "hello")); err != nil {
		t.Fatal(err)
	}
	server, err = l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.Recv(); err != nil {
		t.Fatal(err)
	}
	return client, server
}

// onBothMedia runs f against a zero-plan Link in front of an in-memory pipe
// and in front of a TCP session; peer is the far, unwrapped endpoint.
func onBothMedia(t *testing.T, f func(t *testing.T, l *Link, peer transport.Conn)) {
	t.Run("mem", func(t *testing.T) {
		l, peer := Pipe(Plan{})
		f(t, l, peer)
	})
	t.Run("tcp", func(t *testing.T) {
		a, b := tcpPair(t)
		f(t, Wrap(a, Plan{}), b)
	})
}

// waitCaptured polls until the link has recorded n frames: a peer's frame
// is captured when it arrives, not when the peer's Send returns.
func waitCaptured(t *testing.T, l *Link, n int) {
	t.Helper()
	waitStat(t, "captured", func() uint64 { return uint64(len(l.Captured())) }, uint64(n))
}

func TestLinkDeliversBothDirections(t *testing.T) {
	onBothMedia(t, func(t *testing.T, a *Link, b transport.Conn) {
		defer a.Close()
		if err := a.Send(env(wire.TypeAck, "a", "to-b")); err != nil {
			t.Fatal(err)
		}
		got, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if string(got.Payload) != "to-b" {
			t.Errorf("payload = %q", got.Payload)
		}

		if err := b.Send(env(wire.TypeAck, "b", "to-a")); err != nil {
			t.Fatal(err)
		}
		got, err = a.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if string(got.Payload) != "to-a" {
			t.Errorf("payload = %q", got.Payload)
		}
	})
}

func TestLinkCapturesEverything(t *testing.T) {
	onBothMedia(t, func(t *testing.T, a *Link, b transport.Conn) {
		defer a.Close()
		a.Send(env(wire.TypeAuthInitReq, "a", "one"))
		// Outbound frames are on record once Send returns.
		if got := a.Captured(); len(got) != 1 || got[0].Dir != Outbound {
			t.Fatalf("after one Send: captured %v", got)
		}
		b.Send(env(wire.TypeAuthKeyDist, "b", "two"))
		waitCaptured(t, a, 2)
		a.Send(env(wire.TypeAuthAckKey, "a", "three"))

		got := a.Captured()
		if len(got) != 3 {
			t.Fatalf("captured %d frames, want 3", len(got))
		}
		if got[0].Dir != Outbound || got[1].Dir != Inbound || got[2].Dir != Outbound {
			t.Errorf("directions = %v %v %v", got[0].Dir, got[1].Dir, got[2].Dir)
		}
		if string(got[1].Env.Payload) != "two" {
			t.Errorf("capture order wrong: %q", got[1].Env.Payload)
		}
	})
}

func TestLinkFilterDrops(t *testing.T) {
	onBothMedia(t, func(t *testing.T, a *Link, b transport.Conn) {
		defer a.Close()
		a.SetFilter(func(d Direction, e wire.Envelope) bool {
			return e.Type != wire.TypeAck // drop all acks
		})
		if err := a.Send(env(wire.TypeAck, "a", "dropped")); err != nil {
			t.Fatal(err) // sender cannot tell
		}
		if err := a.Send(env(wire.TypeAppData, "a", "delivered")); err != nil {
			t.Fatal(err)
		}
		got, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if string(got.Payload) != "delivered" {
			t.Errorf("got %q, dropped frame was delivered", got.Payload)
		}
		// Dropped frames are still captured (the adversary observed them).
		if len(a.Captured()) != 2 {
			t.Errorf("captured %d, want 2", len(a.Captured()))
		}
		if s := a.Stats(); s.Dropped != 1 {
			t.Errorf("dropped = %d, want the one filtered frame", s.Dropped)
		}

		// The filter sees the peer's frames too, with the Inbound label.
		a.SetFilter(func(d Direction, e wire.Envelope) bool { return d != Inbound || e.Type != wire.TypeAck })
		b.Send(env(wire.TypeAck, "b", "dropped"))
		b.Send(env(wire.TypeAppData, "b", "delivered"))
		if got, err := a.Recv(); err != nil || string(got.Payload) != "delivered" {
			t.Errorf("inbound filter: got %q, %v", got.Payload, err)
		}
	})
}

func TestLinkInject(t *testing.T) {
	onBothMedia(t, func(t *testing.T, a *Link, b transport.Conn) {
		defer a.Close()
		forged := env(wire.TypeReqClose, "alice", "forged close")
		if err := a.Inject(Outbound, forged); err != nil {
			t.Fatal(err)
		}
		got, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != wire.TypeReqClose {
			t.Errorf("injected frame type = %v", got.Type)
		}
		if err := a.Inject(Inbound, forged); err != nil {
			t.Fatal(err)
		}
		if got, err := a.Recv(); err != nil || got.Type != wire.TypeReqClose {
			t.Errorf("inbound injection: %v, %v", got.Type, err)
		}
		// Injected frames are not captures of endpoint traffic.
		if len(a.Captured()) != 0 {
			t.Error("injection polluted the capture log")
		}
	})
}

func TestLinkReplay(t *testing.T) {
	onBothMedia(t, func(t *testing.T, a *Link, b transport.Conn) {
		defer a.Close()
		a.Send(env(wire.TypeAdminMsg, "l", "old-key"))
		if _, err := b.Recv(); err != nil {
			t.Fatal(err)
		}

		if err := a.Replay(0); err != nil {
			t.Fatal(err)
		}
		got, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if string(got.Payload) != "old-key" {
			t.Errorf("replayed payload = %q", got.Payload)
		}

		if err := a.Replay(7); err == nil {
			t.Error("out-of-range replay succeeded")
		}
		if err := a.Replay(-1); err == nil {
			t.Error("negative replay succeeded")
		}
	})
}

func TestLinkReplayMatching(t *testing.T) {
	onBothMedia(t, func(t *testing.T, a *Link, b transport.Conn) {
		defer a.Close()
		a.Send(env(wire.TypeAdminMsg, "l", "k1"))
		a.Send(env(wire.TypeAppData, "l", "d1"))
		a.Send(env(wire.TypeAdminMsg, "l", "k2"))
		for i := 0; i < 3; i++ {
			if _, err := b.Recv(); err != nil {
				t.Fatal(err)
			}
		}

		n, err := a.ReplayMatching(func(c Captured) bool { return c.Env.Type == wire.TypeAdminMsg })
		if err != nil {
			t.Fatal(err)
		}
		if n != 2 {
			t.Fatalf("replayed %d, want 2", n)
		}
		for _, want := range []string{"k1", "k2"} {
			got, err := b.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if string(got.Payload) != want {
				t.Errorf("replay payload = %q want %q", got.Payload, want)
			}
		}
	})
}

// TestLinkCloseUnblocks: either end hanging up ends a pending Recv on the
// Link — its own Close, or the peer's, which a transparent wrapper must pass
// on as the wrapped connection would.
func TestLinkCloseUnblocks(t *testing.T) {
	for name, hangUp := range map[string]func(*Link, transport.Conn){
		"own":  func(a *Link, _ transport.Conn) { a.Close() },
		"peer": func(_ *Link, b transport.Conn) { b.Close() },
	} {
		t.Run(name, func(t *testing.T) {
			onBothMedia(t, func(t *testing.T, a *Link, b transport.Conn) {
				defer a.Close()
				done := make(chan error, 1)
				go func() {
					_, err := a.Recv()
					done <- err
				}()
				hangUp(a, b)
				select {
				case err := <-done:
					if !errors.Is(err, transport.ErrClosed) {
						t.Errorf("Recv after hang-up = %v, want ErrClosed", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("Recv still blocked after hang-up")
				}
			})
		})
	}
}

func TestLinkInjectAfterClose(t *testing.T) {
	onBothMedia(t, func(t *testing.T, a *Link, _ transport.Conn) {
		if err := a.Send(env(wire.TypeAppData, "a", "pre")); err != nil {
			t.Fatal(err)
		}
		a.Close()
		if err := a.Inject(Outbound, env(wire.TypeAppData, "a", "post")); !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("Inject after Close = %v, want ErrClosed", err)
		}
		if err := a.Inject(Inbound, env(wire.TypeAppData, "a", "post")); !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("Inject (inbound) after Close = %v, want ErrClosed", err)
		}
		if err := a.Send(env(wire.TypeAppData, "a", "post")); !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("Send after Close = %v, want ErrClosed", err)
		}
		// Captured history must survive closure: the adversary keeps its
		// transcript even after tearing the link down.
		if got := a.Captured(); len(got) != 1 || string(got[0].Env.Payload) != "pre" {
			t.Fatalf("captured after close = %v", got)
		}
	})
}

func TestLinkReplayAfterClose(t *testing.T) {
	onBothMedia(t, func(t *testing.T, a *Link, _ transport.Conn) {
		if err := a.Send(env(wire.TypeAppData, "a", "pre")); err != nil {
			t.Fatal(err)
		}
		a.Close()
		if err := a.Replay(0); !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("Replay after Close = %v, want ErrClosed", err)
		}
		// Out-of-range indices still report range errors, not ErrClosed.
		if err := a.Replay(5); err == nil || errors.Is(err, transport.ErrClosed) {
			t.Fatalf("Replay(5) = %v, want out-of-range error", err)
		}
	})
}

// TestLinkReplayMatchingStopsOnInjectFailure: when the link dies between
// matched frames, ReplayMatching must report how many frames actually got
// through along with the error, not silently swallow the partial replay.
func TestLinkReplayMatchingStopsOnInjectFailure(t *testing.T) {
	onBothMedia(t, func(t *testing.T, a *Link, b transport.Conn) {
		for i := 0; i < 3; i++ {
			if err := a.Send(env(wire.TypeAppData, "a", fmt.Sprintf("m%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		// Drain the originals so queue state is irrelevant to the replays.
		for i := 0; i < 3; i++ {
			if _, err := b.Recv(); err != nil {
				t.Fatal(err)
			}
		}
		matched := 0
		n, err := a.ReplayMatching(func(Captured) bool {
			matched++
			if matched == 2 {
				// The endpoint hangs up while the adversary is mid-replay.
				a.Close()
			}
			return true
		})
		if n != 1 {
			t.Fatalf("replayed %d frames, want exactly the 1 delivered before closure", n)
		}
		if !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("ReplayMatching error = %v, want ErrClosed", err)
		}
	})
}

// TestLinkSetFilterDuringTransmit: swapping filters while both endpoints
// are sending must be race-free, every frame must be either delivered or
// dropped (none duplicated, none invented), and the capture transcript must
// record all of them.
func TestLinkSetFilterDuringTransmit(t *testing.T) {
	onBothMedia(t, func(t *testing.T, a *Link, b transport.Conn) {
		const perSide = 200

		var senders sync.WaitGroup
		send := func(c transport.Conn, tag string) {
			defer senders.Done()
			for i := 0; i < perSide; i++ {
				if err := c.Send(env(wire.TypeAppData, tag, fmt.Sprintf("%s%d", tag, i))); err != nil {
					t.Errorf("send %s%d: %v", tag, i, err)
					return
				}
			}
		}
		var drains sync.WaitGroup
		drain := func(c transport.Conn, got *[]string) {
			defer drains.Done()
			for {
				e, err := c.Recv()
				if err != nil {
					return
				}
				*got = append(*got, string(e.Payload))
			}
		}
		var aGot, bGot []string
		senders.Add(2)
		go send(a, "a")
		go send(b, "b")
		drains.Add(2)
		go drain(a, &aGot)
		go drain(b, &bGot)

		// The adversary flips between drop-all, drop-none, and a selective
		// filter while traffic is in flight.
		filters := []FilterFunc{
			nil,
			func(Direction, wire.Envelope) bool { return false },
			func(d Direction, _ wire.Envelope) bool { return d == Outbound },
		}
		for i := 0; i < 500; i++ {
			a.SetFilter(filters[i%len(filters)])
		}
		a.SetFilter(nil)

		// Senders finish and the peer's last frame reaches the link; then
		// closing it unblocks the drains, and only after both may the receive
		// slices be read.
		senders.Wait()
		waitCaptured(t, a, 2*perSide)
		a.Close()
		drains.Wait()

		if got := len(a.Captured()); got != 2*perSide {
			t.Fatalf("captured %d frames, want %d (filters must not affect capture)", got, 2*perSide)
		}
		if len(aGot) > perSide || len(bGot) > perSide {
			t.Fatalf("received more frames than were sent: a=%d b=%d", len(aGot), len(bGot))
		}
	})
}

// TestFilterPreservesDeterminism is TestSeverPreservesDeterminism for the
// stage before it: a frame the adversary filters out never reaches the dice,
// so the fault decisions for every other frame are the same with and
// without the filter.
func TestFilterPreservesDeterminism(t *testing.T) {
	const n = 40
	run := func(filter bool) []uint64 {
		a, b := Pipe(Plan{Seed: 99, Outbound: DirFaults{Drop: 0.4}})
		defer a.Close()
		if filter {
			a.SetFilter(func(_ Direction, e wire.Envelope) bool { return frameIndex(e) < 1000 })
		}
		for i := uint64(0); i < n; i++ {
			if err := a.Send(frame(i)); err != nil {
				t.Fatal(err)
			}
			if filter && i%3 == 0 {
				if err := a.Send(frame(1000 + i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		return collect(t, b, 100*time.Millisecond)
	}
	clean, filtered := run(false), run(true)
	if len(clean) == 0 || len(clean) == n {
		t.Fatalf("plan dropped %d of %d frames; the comparison proves nothing", n-len(clean), n)
	}
	if fmt.Sprint(clean) != fmt.Sprint(filtered) {
		t.Fatalf("filtered frames consumed PRNG draws:\nclean    %v\nfiltered %v", clean, filtered)
	}
}

// TestCloseDrainsAcceptedFrames is the regression for Close racing the
// outbound pump: a transparent Link must deliver everything sent before
// Close, as the connection it wraps does. member.Leave is exactly this shape
// (ReqClose, then Close). Before the fix all 8 frames arrived in about 1
// round in 100.
func TestCloseDrainsAcceptedFrames(t *testing.T) {
	const rounds, frames = 200, 8
	for r := 0; r < rounds; r++ {
		a, b := Pipe(Plan{})
		for i := uint64(0); i < frames; i++ {
			if err := a.Send(frame(i)); err != nil {
				t.Fatal(err)
			}
		}
		a.Close()
		for i := uint64(0); i < frames; i++ {
			e, err := b.Recv()
			if err != nil {
				t.Fatalf("round %d: %d of %d frames sent before Close were delivered", r, i, frames)
			}
			if frameIndex(e) != i {
				t.Fatalf("round %d: frame %d arrived in slot %d", r, frameIndex(e), i)
			}
		}
		if _, err := b.Recv(); !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("round %d: Recv after the drained frames = %v, want ErrClosed", r, err)
		}
	}
}

// TestCloseDrainIsBounded: the drain still applies the plan — a severed link
// delivers nothing — and does not sit out per-frame delays, so closing a
// slow link with a backlog returns promptly.
func TestCloseDrainIsBounded(t *testing.T) {
	a, b := Pipe(Plan{Outbound: DirFaults{DelayMin: 200 * time.Millisecond}})
	for i := uint64(0); i < 20; i++ {
		if err := a.Send(frame(i)); err != nil {
			t.Fatal(err)
		}
	}
	began := time.Now()
	a.Close()
	if d := time.Since(began); d > time.Second {
		t.Fatalf("Close took %v with 20 frames queued behind 200ms delays", d)
	}
	if got := collect(t, b, 50*time.Millisecond); len(got) != 20 {
		t.Fatalf("delivered %d of 20 frames queued before Close", len(got))
	}

	a, b = Pipe(Plan{})
	a.Sever()
	if err := a.Send(frame(1)); err != nil {
		t.Fatal(err)
	}
	a.Close()
	if got := collect(t, b, 50*time.Millisecond); len(got) != 0 {
		t.Fatalf("a severed link delivered %v while closing", got)
	}
}
