package faultnet

import (
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"enclaves/internal/transport"
	"enclaves/internal/wire"
)

func frame(i uint64) wire.Envelope {
	var p [8]byte
	binary.BigEndian.PutUint64(p[:], i)
	return wire.Envelope{Type: wire.TypeAppData, Sender: "a", Receiver: "b", Payload: p[:]}
}

func frameIndex(e wire.Envelope) uint64 {
	return binary.BigEndian.Uint64(e.Payload)
}

// collect drains c until no frame arrives for quiet, returning the indices
// in arrival order.
func collect(t *testing.T, c transport.Conn, quiet time.Duration) []uint64 {
	t.Helper()
	frames := make(chan wire.Envelope)
	go func() {
		defer close(frames)
		for {
			e, err := c.Recv()
			if err != nil {
				return
			}
			frames <- e
		}
	}()
	var out []uint64
	for {
		select {
		case e, ok := <-frames:
			if !ok {
				return out
			}
			out = append(out, frameIndex(e))
		case <-time.After(quiet):
			return out
		}
	}
}

// TestDeterministicFromSeed is the reproducibility contract: two runs with
// the same seed and the same frame sequence deliver the identical sequence
// (same drops, same duplicates, same reorderings).
func TestDeterministicFromSeed(t *testing.T) {
	run := func() ([]uint64, Stats) {
		plan := Plan{
			Seed:     1234,
			Outbound: DirFaults{Drop: 0.15, Dup: 0.1, Reorder: 0.2},
		}
		a, b := Pipe(plan)
		defer a.Close()
		const n = 300
		for i := uint64(0); i < n; i++ {
			if err := a.Send(frame(i)); err != nil {
				t.Fatal(err)
			}
		}
		got := collect(t, b, 300*time.Millisecond)
		return got, a.Stats()
	}
	first, stats := run()
	second, _ := run()

	if stats.Dropped == 0 || stats.Duplicated == 0 || stats.Reordered == 0 {
		t.Fatalf("plan injected no faults: %+v", stats)
	}
	if len(first) == 0 {
		t.Fatal("no frames survived")
	}
	if len(first) != len(second) {
		t.Fatalf("runs delivered %d vs %d frames", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("delivery diverged at %d: %d vs %d", i, first[i], second[i])
		}
	}
}

func TestCleanPlanIsTransparent(t *testing.T) {
	a, b := Pipe(Plan{Seed: 7})
	defer a.Close()
	const n = 100
	for i := uint64(0); i < n; i++ {
		if err := a.Send(frame(i)); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, b, 200*time.Millisecond)
	if len(got) != n {
		t.Fatalf("delivered %d frames, want %d", len(got), n)
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("frame %d out of order: %d", i, v)
		}
	}
}

func TestPartitionBlackholes(t *testing.T) {
	plan := Plan{
		Seed:       9,
		Partitions: []Partition{{Start: 0, Stop: 150 * time.Millisecond}},
	}
	a, b := Pipe(plan)
	defer a.Close()
	if err := a.Send(frame(1)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(250 * time.Millisecond) // partition has healed
	if err := a.Send(frame(2)); err != nil {
		t.Fatal(err)
	}
	got := collect(t, b, 200*time.Millisecond)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("got %v, want only the post-partition frame [2]", got)
	}
	if s := a.Stats(); s.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", s.Dropped)
	}
}

func TestHealStopsFaults(t *testing.T) {
	plan := Plan{
		Seed:     11,
		Outbound: DirFaults{Drop: 1.0}, // drop everything...
		Heal:     100 * time.Millisecond,
	}
	a, b := Pipe(plan)
	defer a.Close()
	if err := a.Send(frame(1)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond) // ...until the chaos window closes
	if err := a.Send(frame(2)); err != nil {
		t.Fatal(err)
	}
	got := collect(t, b, 200*time.Millisecond)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("got %v, want only the post-heal frame [2]", got)
	}
}

func TestResetTearsConnectionDown(t *testing.T) {
	plan := Plan{
		Seed:     13,
		Outbound: DirFaults{ResetAfter: 2},
	}
	a, b := Pipe(plan)
	for i := uint64(0); i < 5; i++ {
		a.Send(frame(i)) // sends beyond the reset fail once Close lands
	}
	got := collect(t, b, 300*time.Millisecond)
	if len(got) != 2 {
		t.Fatalf("delivered %d frames, want 2 before the reset", len(got))
	}
	if s := a.Stats(); s.Resets != 1 {
		t.Fatalf("resets = %d, want 1", s.Resets)
	}
	// The wrapper is now closed in both directions.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := a.Send(frame(99)); errors.Is(err, transport.ErrClosed) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Send still accepted after reset")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := b.Recv(); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("peer Recv after reset: %v, want ErrClosed", err)
	}
}

func TestInboundFaults(t *testing.T) {
	plan := Plan{
		Seed:    17,
		Inbound: DirFaults{Drop: 1.0},
	}
	a, b := Pipe(plan)
	defer a.Close()
	// Outbound is clean.
	if err := a.Send(frame(1)); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, b, 150*time.Millisecond); len(got) != 1 {
		t.Fatalf("outbound delivered %d, want 1", len(got))
	}
	// Inbound drops everything.
	if err := b.Send(frame(2)); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		a.Recv()
	}()
	select {
	case <-done:
		t.Fatal("inbound frame survived a 100% drop plan")
	case <-time.After(200 * time.Millisecond):
	}
}

func TestNetworkSeedsPerDial(t *testing.T) {
	inner := transport.NewMemNetwork()
	defer inner.Close()
	l, err := inner.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c transport.Conn) {
				for {
					e, err := c.Recv()
					if err != nil {
						return
					}
					c.Send(e) // echo
				}
			}(c)
		}
	}()

	net := NewNetwork(inner.Dial, Plan{Seed: 100, Outbound: DirFaults{Drop: 0.5}})
	c1, err := net.Dial("svc")
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := net.Dial("svc")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c1.plan.Seed == c2.plan.Seed {
		t.Fatalf("both dials got seed %d", c1.plan.Seed)
	}
	for i := uint64(0); i < 50; i++ {
		c1.Send(frame(i))
	}
	got := collect(t, c1, 200*time.Millisecond)
	if len(got) == 0 || len(got) == 50 {
		t.Fatalf("echo round trip with 50%% drop delivered %d of 50", len(got))
	}
	if s := net.Stats(); s.Dropped == 0 {
		t.Fatalf("network stats recorded no drops: %+v", s)
	}
}
