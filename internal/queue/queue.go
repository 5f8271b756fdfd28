// Package queue provides FIFOs with blocking receive and close semantics,
// shared by the transport layer (whose links mirror the formal model's
// never-full asynchronous network) and by event delivery to applications.
// Two variants exist: the unbounded New, and NewBounded whose Push reports
// overflow so callers can apply a slow-consumer policy (the group layer
// evicts members whose outbox overflows).
package queue

import (
	"errors"
	"sync"

	"enclaves/internal/metrics"
)

// Process-wide queue instruments: every FIFO in the runtime (outboxes,
// event streams, transport pipes, audit) counts into these, so a snapshot
// shows aggregate queue pressure at a glance.
var (
	mPushes = metrics.NewCounter("queue_pushes_total")
	mPops   = metrics.NewCounter("queue_pops_total")
	mFull   = metrics.NewCounter("queue_full_total")
)

// A batch drain that empties the queue releases the backing array when it
// is both big in absolute terms and mostly idle — the drained batch filled
// under 1/shrinkFactor of it. Steady-state consumers (one frame in, one
// frame out) never trip the threshold, so the shrink fires once per burst,
// not once per message.
const (
	shrinkMinCap = 64
	shrinkFactor = 8
)

// ErrClosed is returned by operations on a closed queue.
var ErrClosed = errors.New("queue: closed")

// ErrFull is returned by Push on a bounded queue at capacity. The item is
// not enqueued; the caller decides the overflow policy (drop, evict the
// consumer, back-pressure).
var ErrFull = errors.New("queue: full")

// Queue is a FIFO, unbounded unless built with NewBounded. The zero value
// is not usable; call New or NewBounded.
type Queue[T any] struct {
	mu     sync.Mutex
	nonEmp *sync.Cond
	items  []T
	cap    int // 0 = unbounded
	closed bool
	// waiting counts receivers blocked in nonEmp.Wait. Push signals only
	// when a receiver is actually parked: with a batching consumer the
	// common case is pushing onto a non-empty backlog nobody waits on, and
	// skipping the futex wake there measurably cheapens high-rate fan-out.
	waiting int
}

// New returns an empty unbounded queue.
func New[T any]() *Queue[T] {
	q := &Queue[T]{}
	q.nonEmp = sync.NewCond(&q.mu)
	return q
}

// NewBounded returns an empty queue holding at most capacity items; Push at
// capacity fails with ErrFull instead of blocking, so producers can never
// be stalled by a slow consumer. A capacity <= 0 means unbounded.
func NewBounded[T any](capacity int) *Queue[T] {
	q := New[T]()
	if capacity > 0 {
		q.cap = capacity
	}
	return q
}

// Push appends an item; it fails with ErrClosed on a closed queue and with
// ErrFull on a bounded queue at capacity.
func (q *Queue[T]) Push(item T) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	if q.cap > 0 && len(q.items) >= q.cap {
		mFull.Inc()
		return ErrFull
	}
	q.items = append(q.items, item)
	mPushes.Inc()
	if q.waiting > 0 {
		q.nonEmp.Signal()
	}
	return nil
}

// Pop blocks until an item is available or the queue closes. After close,
// remaining items are still drained in order before ErrClosed is returned.
func (q *Queue[T]) Pop() (T, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.waiting++
		q.nonEmp.Wait()
		q.waiting--
	}
	var zero T
	if len(q.items) == 0 {
		return zero, ErrClosed
	}
	item := q.items[0]
	q.items[0] = zero // release for GC
	q.items = q.items[1:]
	mPops.Inc()
	return item, nil
}

// PopAll drains everything queued into buf, reusing its capacity, without
// waiting (an empty open queue yields an empty buf), so a connection's writer
// seals and sends a whole outbox behind one flush. After close, remaining
// items are still drained before ErrClosed is returned.
func (q *Queue[T]) PopAll(buf []T) ([]T, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := len(q.items)
	if n == 0 {
		if q.closed {
			return buf[:0], ErrClosed
		}
		return buf[:0], nil
	}
	out := append(buf[:0], q.items...)
	clear(q.items) // release for GC
	// The items were copied out: rewind to the front of the backing array
	// so future pushes reuse its capacity — unless the array is a relic of
	// a far larger backlog (a join-storm broadcast fanning out to thousands
	// of outboxes, say). Rewinding would pin that peak-sized pointer array
	// forever, and with one such queue per member the process retains
	// O(members × peak) slots that every GC cycle re-scans. Dropping an
	// oversized array costs one re-grow on the next burst and gives the
	// memory back. The plain Pop path needs no such policy: its slice
	// advance abandons the array once append exhausts the tail capacity.
	if c := cap(q.items); c > shrinkMinCap && n < c/shrinkFactor {
		q.items = nil
	} else {
		q.items = q.items[:0]
	}
	mPops.Add(uint64(n))
	return out, nil
}

// TryPop returns the head item without blocking; ok is false if the queue
// is empty.
func (q *Queue[T]) TryPop() (item T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var zero T
	if len(q.items) == 0 {
		return zero, false
	}
	item = q.items[0]
	q.items[0] = zero
	q.items = q.items[1:]
	mPops.Inc()
	return item, true
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// Close marks the queue closed and wakes all blocked receivers. Pending
// items remain poppable.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.nonEmp.Broadcast()
}

// Closed reports whether Close has been called.
func (q *Queue[T]) Closed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}
