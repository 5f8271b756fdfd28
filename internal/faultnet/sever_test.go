package faultnet

import (
	"testing"
	"time"

	"enclaves/internal/transport"
)

// waitStat polls until get() reaches want or the deadline passes.
func waitStat(t *testing.T, what string, get func() uint64, want uint64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if get() >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%s: got %d, want >= %d", what, get(), want)
}

// TestSeverRestore is the crash/restart contract: a severed link blackholes
// frames without closing the endpoints, and a restored link carries traffic
// again — but never the frames swallowed during the window.
func TestSeverRestore(t *testing.T) {
	a, b := Pipe(Plan{})
	defer a.Close()
	defer b.Close()

	if err := a.Send(frame(1)); err != nil {
		t.Fatal(err)
	}
	if e, err := b.Recv(); err != nil || frameIndex(e) != 1 {
		t.Fatalf("before sever: %v %v", e, err)
	}

	a.Sever()
	if !a.Severed() {
		t.Fatal("Severed() false after Sever")
	}
	if err := a.Send(frame(2)); err != nil {
		t.Fatalf("send on severed link must not error (the sender cannot tell): %v", err)
	}
	waitStat(t, "dropped", func() uint64 { return a.Stats().Dropped }, 1)

	a.Restore()
	if a.Severed() {
		t.Fatal("Severed() true after Restore")
	}
	if err := a.Send(frame(3)); err != nil {
		t.Fatal(err)
	}
	e, err := b.Recv()
	if err != nil || frameIndex(e) != 3 {
		t.Fatalf("after restore: %v %v — frame 2 must stay lost, frame 3 must arrive", e, err)
	}
}

// TestSeverBothDirections: the blackhole is bidirectional, like a dead host.
func TestSeverBothDirections(t *testing.T) {
	a, b := Pipe(Plan{})
	defer a.Close()
	defer b.Close()

	a.Sever()
	if err := b.Send(frame(7)); err != nil {
		t.Fatal(err)
	}
	waitStat(t, "inbound dropped", func() uint64 { return a.Stats().Dropped }, 1)
	a.Restore()
	if err := b.Send(frame(8)); err != nil {
		t.Fatal(err)
	}
	e, err := a.Recv()
	if err != nil || frameIndex(e) != 8 {
		t.Fatalf("after restore: %v %v", e, err)
	}
}

// TestSeverPreservesDeterminism is the property the pump's check ordering
// buys: frames blackholed by a sever consume no PRNG draws, so the fault
// decisions for every frame OUTSIDE the window are identical with and
// without a sever in between. A failing chaos seed therefore replays
// exactly even when the scenario kills a link mid-run.
func TestSeverPreservesDeterminism(t *testing.T) {
	const n = 40
	run := func(sever bool) []uint64 {
		a, b := Pipe(Plan{Seed: 99, Outbound: DirFaults{Drop: 0.4}})
		defer a.Close()
		defer b.Close()
		// processed tracks Delivered+Dropped across BOTH real and severed
		// frames, so each send is fully adjudicated before the next — keeping
		// arrival order (and the sever window boundary) deterministic.
		processed := uint64(0)
		send := func(e uint64) {
			t.Helper()
			if err := a.Send(frame(e)); err != nil {
				t.Fatal(err)
			}
			processed++
			waitStat(t, "processed", func() uint64 {
				s := a.Stats()
				return s.Delivered + s.Dropped
			}, processed)
		}
		for i := uint64(0); i < n; i++ {
			if sever && i == n/2 {
				// Crash window in the middle: 5 extra frames die without
				// touching the dice, then the link comes back.
				a.Sever()
				for j := uint64(0); j < 5; j++ {
					send(1000 + j)
				}
				a.Restore()
			}
			send(i)
		}
		return collect(t, b, 100*time.Millisecond)
	}

	clean := run(false)
	withSever := run(true)
	if len(clean) != len(withSever) {
		t.Fatalf("sever window changed survivor count: clean=%d sever=%d", len(clean), len(withSever))
	}
	for i := range clean {
		if clean[i] != withSever[i] {
			t.Fatalf("survivor %d differs: clean=%d sever=%d — sever consumed PRNG draws", i, clean[i], withSever[i])
		}
	}
}

// TestNetworkSeverAll: the whole-host kill switch severs every dialed
// connection at once.
func TestNetworkSeverAll(t *testing.T) {
	inner := transport.NewMemNetwork()
	n := NewNetwork(inner.Dial, Plan{})
	l, err := inner.Listen("leader")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan error, 2)
	go func() {
		for i := 0; i < 2; i++ {
			c, err := l.Accept()
			if err != nil {
				accepted <- err
				return
			}
			go func() {
				for {
					if _, err := c.Recv(); err != nil {
						return
					}
				}
			}()
			accepted <- nil
		}
	}()
	c1, err := n.Dial("leader")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := n.Dial("leader")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-accepted; err != nil {
			t.Fatal(err)
		}
	}
	n.SeverAll()
	if !c1.Severed() || !c2.Severed() {
		t.Fatal("SeverAll missed a connection")
	}
	if err := c1.Send(frame(1)); err != nil {
		t.Fatal(err)
	}
	if err := c2.Send(frame(2)); err != nil {
		t.Fatal(err)
	}
	waitStat(t, "severed drops", func() uint64 { return n.Stats().Dropped }, 2)
	n.RestoreAll()
	if c1.Severed() || c2.Severed() {
		t.Fatal("RestoreAll missed a connection")
	}
}
