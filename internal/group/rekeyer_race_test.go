package group

// Race tests for the rekey-coalescing machinery. These carry few
// assertions on purpose: their value is running the coalescing timer's
// flush concurrently with teardown and with other rotation sources under
// the race detector, which turns any unsynchronized access into a failure.

import (
	"sync"
	"testing"
	"time"

	"enclaves/internal/crypto"
	"enclaves/internal/lkh"
	"enclaves/internal/replica"
	"enclaves/internal/wire"
)

// armWindow registers one policy-style trigger, arming the coalescing
// window exactly as a join or departure would.
func armWindow(g *Leader) {
	g.mu.Lock()
	g.requestRekeyLocked()
	g.mu.Unlock()
}

// TestFlushRekeyRacesClose arms a near-zero coalescing window and tears the
// leader down at the same moment the timer fires, many times over, flat and
// LKH both — flushRekey must lose cleanly to Close (timer cancelled or
// no-op on the closed flag); under LKH the rotation queues its KeyUpdates
// under the same lock, so it must lose to Close the same way.
func TestFlushRekeyRacesClose(t *testing.T) {
	for i := 0; i < 40; i++ {
		cfg := Config{
			Name:          leaderName,
			Users:         map[string]crypto.Key{},
			Rekey:         DefaultRekeyPolicy(),
			RekeyCoalesce: time.Duration(i%5) * 100 * time.Microsecond,
		}
		if cfg.RekeyCoalesce == 0 {
			cfg.RekeyCoalesce = 50 * time.Microsecond
		}
		if i%2 == 1 {
			cfg.LKH = true
			cfg.LKHArity = 2
		}
		g, err := NewLeader(cfg)
		if err != nil {
			t.Fatal(err)
		}
		armWindow(g)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.Close()
		}()
		// A second trigger may land on the armed window, the flushed
		// rotation, or the closed leader — all must be safe.
		armWindow(g)
		wg.Wait()
	}
}

// TestAutoRekeyerRacesCoalescingWindow runs a periodic rekey — a ticker
// goroutine calling Leader.Rekey, as an application's own timer would —
// flat out against a stream of coalescing triggers: immediate rotations keep
// absorbing the armed window (rekeyLocked's prologue) while flushRekey
// keeps firing for the windows that survive. Afterwards the leader must be
// quiescent — no pending flag left dangling — and every rotation must have
// advanced the epoch monotonically.
func TestAutoRekeyerRacesCoalescingWindow(t *testing.T) {
	g, err := NewLeader(Config{
		Name:          leaderName,
		Users:         map[string]crypto.Key{},
		Rekey:         DefaultRekeyPolicy(),
		RekeyCoalesce: 200 * time.Microsecond,
		LKH:           true, LKHArity: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(100 * time.Microsecond)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				if err := g.Rekey(); err != nil {
					t.Errorf("periodic rekey: %v", err)
				}
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					armWindow(g)
					time.Sleep(50 * time.Microsecond)
				}
			}
		}()
	}
	epochs := make(chan uint64, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last uint64
		for {
			select {
			case <-stop:
				epochs <- last
				return
			default:
				if e := g.Epoch(); e < last {
					t.Errorf("epoch moved backwards: %d after %d", e, last)
					epochs <- last
					return
				} else {
					last = e
				}
			}
		}
	}()

	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if e := <-epochs; e == 0 {
		t.Fatal("no rotation ever happened")
	}
	// Quiescence: any window armed by the last trigger flushes; nothing may
	// be left pending once the sources are stopped.
	deadline := time.Now().Add(2 * time.Second)
	for {
		g.mu.Lock()
		pending := g.rekeyPending
		g.mu.Unlock()
		if pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("coalescing window still armed after all triggers stopped")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPromotedLeaderFlushRacesClose promotes from a replicated LKH state
// with the window armed at the crash, then immediately arms and tears down:
// the promotion's forced rotation, the re-armed window's flush and Close
// interleave on a leader whose tree came from the replica.
func TestPromotedLeaderFlushRacesClose(t *testing.T) {
	tree, err := lkh.New(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"alice", "bob", "carol"} {
		if err := tree.Join(u); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tree.RotateDirty(); err != nil {
		t.Fatal(err)
	}
	base := replica.State{
		Primary: leaderName, Epoch: 9, GroupKey: tree.RootKey(), AuditSeq: 3,
		Members: map[string]wire.ReplMember{
			"alice": {SessionKey: newReplKey(t)},
			"bob":   {SessionKey: newReplKey(t)},
			"carol": {SessionKey: newReplKey(t)},
		},
		LKHArity:     2,
		Tree:         make(map[uint64]wire.ReplLKHNode),
		RekeyPending: true,
	}
	for _, r := range tree.Records() {
		base.Tree[uint64(r.ID)] = toReplNode(r)
	}
	users := map[string]crypto.Key{
		"alice": newReplKey(t), "bob": newReplKey(t), "carol": newReplKey(t),
	}

	for i := 0; i < 25; i++ {
		g, err := Promote(Config{
			Users:         users,
			Rekey:         DefaultRekeyPolicy(),
			RekeyCoalesce: time.Duration(i%4+1) * 50 * time.Microsecond,
		}, base.Clone())
		if err != nil {
			t.Fatal(err)
		}
		armWindow(g)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.Close()
		}()
		armWindow(g)
		wg.Wait()
	}
}
