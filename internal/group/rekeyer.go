package group

import (
	"errors"
	"fmt"
	"time"

	"enclaves/internal/wire"
)

// requestRekeyLocked registers one policy-triggered rotation with the
// coalescing window (callers rotate on their own when none is configured).
// The first trigger arms a one-shot timer and every further trigger inside
// the window folds into it, so a k-member churn burst costs one epoch bump
// and one NewGroupKey broadcast instead of k.
//
// Accounting invariant (asserted by the chaos soak): at quiescence, every
// trigger is accounted for exactly once —
//
//	triggers == EventRekeyed count + group_rekeys_coalesced_total delta
//
// A fold counts as coalesced when it lands on an armed window, and the
// armed trigger itself counts as coalesced when an immediate rotation
// (Expel, explicit Rekey) absorbs it first (see rekeyLocked's prologue).
//
// The caller holds g.mu.
func (g *Leader) requestRekeyLocked() {
	g.rekeyPending++
	if g.rekeyPending > 1 {
		mRekeysCoalesced.Inc()
		return
	}
	// Replicate the armed window: if the primary crashes before the flush,
	// the promoted standby owes the group this rotation (and the ledger its
	// coalesced credit) — see Promote.
	g.log.record(change{kind: changeRekeyPending, repl: wire.ReplDeltaPayload{Pending: true}})
	g.rekeyTimer = time.AfterFunc(g.coalesce, g.flushRekey)
}

// flushRekey fires when the coalescing window elapses. The pending count
// may already be gone — an immediate rotation absorbed it, or Close
// cancelled it — in which case there is nothing to do.
func (g *Leader) flushRekey() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed || g.rekeyPending == 0 {
		return
	}
	cause := fmt.Sprintf("coalesced %d", g.rekeyPending)
	g.rekeyPending = 0
	g.rekeyTimer = nil
	if err := g.rekeyLocked(cause, wire.NewGroupKey{}, ""); err != nil {
		g.logf("group: coalesced rekey: %v", err)
	}
}

// AutoRekeyer rotates a leader's group key on a fixed period — the
// "periodic basis" rekey policy of Section 2.2. It owns one background
// goroutine; always call Stop when done.
type AutoRekeyer struct {
	stop chan struct{}
	done chan struct{}
}

// ErrBadPeriod is returned for non-positive rekey periods.
var ErrBadPeriod = errors.New("group: rekey period must be positive")

// StartAutoRekey begins rotating g's group key every period.
func StartAutoRekey(g *Leader, period time.Duration) (*AutoRekeyer, error) {
	if period <= 0 {
		return nil, ErrBadPeriod
	}
	r := &AutoRekeyer{
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go func() {
		defer close(r.done)
		ticker := time.NewTicker(period)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				if err := g.Rekey(); err != nil {
					g.logf("group: periodic rekey: %v", err)
				}
			case <-r.stop:
				return
			}
		}
	}()
	return r, nil
}

// Stop halts the rekeyer and waits for its goroutine to exit. It is safe to
// call once.
func (r *AutoRekeyer) Stop() {
	close(r.stop)
	<-r.done
}
