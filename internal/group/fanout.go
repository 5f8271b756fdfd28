package group

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sync"
)

// fanout is the shared worker pool that pushes one broadcast frame onto many
// member outboxes in parallel. One sequential loop was fine at 8 members;
// at 4096 the loop itself — N bounded-queue pushes plus N gauge updates —
// dominates the broadcast, and it runs on a single goroutine while the other
// cores idle. The pool splits the target snapshot into chunks and pushes
// them concurrently; outbox queues carry their own locks, so workers never
// share a lock.
//
// Workers only ever *enqueue* (queue.Push + gauge add + a memberConn.mu
// touch for heartbeat pacing). They never seal, never send, never take
// Leader.mu — so dispatching from under Leader.mu (broadcastAdminLocked)
// cannot deadlock, and the seal-off-the-lock invariant holds by
// construction. Overflowed members are collected into the result for the
// caller to evict through the normal locked path.
type fanout struct {
	workers int
	tasks   chan fanTask
	wg      sync.WaitGroup
}

// fanTask is one chunk of a fan-out: push frame onto every member in
// targets, recording overflow into res. done must be called exactly once.
type fanTask struct {
	g       *Leader
	targets []*memberConn
	frame   outFrame
	res     *fanResult
}

// fanResult accumulates a fan-out's overflow set and completion across
// chunks.
type fanResult struct {
	pending    sync.WaitGroup
	mu         sync.Mutex
	overflowed []*memberConn
}

func (r *fanResult) addOverflow(s *memberConn) {
	r.mu.Lock()
	r.overflowed = append(r.overflowed, s)
	r.mu.Unlock()
}

// defaultFanoutWorkers sizes the pool: one worker per core, capped at 16 —
// beyond that the chunks get too small to amortize the channel handoff.
func defaultFanoutWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n > 16 {
		n = 16
	}
	return n
}

// newFanout starts a pool of n workers. Each worker is pprof-labeled so CPU
// profiles attribute fan-out time to the pool rather than to anonymous
// goroutines.
func newFanout(n int) *fanout {
	f := &fanout{workers: n, tasks: make(chan fanTask, 4*n)}
	f.wg.Add(n)
	for i := 0; i < n; i++ {
		go pprof.Do(context.Background(), pprof.Labels("enclaves", "fanout-worker"), func(context.Context) {
			defer f.wg.Done()
			for t := range f.tasks {
				t.run()
			}
		})
	}
	return f
}

// close drains the pool. Call only after every dispatcher has stopped
// (Leader.Close joins g.wg first).
func (f *fanout) close() {
	if f == nil {
		return
	}
	close(f.tasks)
	f.wg.Wait()
}

func (t fanTask) run() {
	for _, s := range t.targets {
		if t.g.pushFrameTo(s, t.frame) {
			t.res.addOverflow(s)
		}
	}
	t.res.pending.Done()
}

// fanoutChunk is the smallest unit of parallel work: below ~2 chunks of
// targets the channel handoff costs more than the pushes it offloads, so
// small groups take the inline path and keep the PR 3 latency profile.
const fanoutChunk = 32

// fanoutPush pushes frame onto every target's outbox — inline for small
// groups or when no pool is configured, through the worker pool otherwise —
// and returns the members whose outbox overflowed. It blocks until every
// push has completed, so a caller holding Leader.mu keeps broadcasts
// totally ordered: broadcast N's frames are on every outbox before the lock
// releases and broadcast N+1 can start.
func (g *Leader) fanoutPush(targets []*memberConn, frame outFrame) []*memberConn {
	if g.fan == nil || len(targets) < 2*fanoutChunk {
		var overflowed []*memberConn
		for _, s := range targets {
			if g.pushFrameTo(s, frame) {
				overflowed = append(overflowed, s)
			}
		}
		return overflowed
	}
	chunk := (len(targets) + g.fan.workers - 1) / g.fan.workers
	if chunk < fanoutChunk {
		chunk = fanoutChunk
	}
	var res fanResult
	for lo := 0; lo < len(targets); lo += chunk {
		hi := lo + chunk
		if hi > len(targets) {
			hi = len(targets)
		}
		res.pending.Add(1)
		g.fan.tasks <- fanTask{g: g, targets: targets[lo:hi], frame: frame, res: &res}
	}
	res.pending.Wait()
	return res.overflowed
}
