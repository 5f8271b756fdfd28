package group

import (
	"fmt"
	"sync"

	"enclaves/internal/queue"
)

// EventKind classifies leader audit events.
type EventKind uint8

// Leader audit event kinds. Rejected events are the observable footprint of
// tolerated intrusion attempts — an operator watching them gets intrusion
// *detection* on top of the protocol's intrusion *tolerance*.
const (
	EventJoined EventKind = iota + 1
	EventLeft
	EventExpelled
	EventRekeyed
	EventRejected
	// EventEvicted: the liveness layer expelled a member that missed its
	// ack deadline or overflowed its bounded outbox. Operationally a leave
	// (the on-leave rekey fires), but distinguishable so operators can tell
	// failure-driven departures from voluntary ones; Detail names the cause.
	EventEvicted
	// EventResumed: a member re-attached to this (promoted) leader through
	// the failover resumption sub-protocol, under its existing session key —
	// no password re-handshake.
	EventResumed
)

func (k EventKind) String() string {
	switch k {
	case EventJoined:
		return "Joined"
	case EventLeft:
		return "Left"
	case EventExpelled:
		return "Expelled"
	case EventRekeyed:
		return "Rekeyed"
	case EventRejected:
		return "Rejected"
	case EventEvicted:
		return "Evicted"
	case EventResumed:
		return "Resumed"
	default:
		return "invalid"
	}
}

// Event is one leader audit record.
type Event struct {
	// Seq is a per-leader monotonic trace ID assigned at emission: event N
	// was emitted before event N+1, and delivery order equals Seq order.
	// Correlate with the member-side member.Event.Seq (the AdminMsg
	// pipeline sequence) to follow one broadcast leader -> member across
	// logs.
	Seq  uint64
	Kind EventKind
	// User is the member concerned (empty for Rekeyed).
	User string
	// Epoch is the group-key epoch after the event.
	Epoch uint64
	// Detail carries diagnostic context: the rejection reason, the eviction
	// cause, and for Rekeyed why the epoch moved — "join <user>",
	// "leave <user>" (evictions included), "expel <user>", "manual",
	// "coalesced <k>" for a window that folded k triggers, "promotion".
	Detail string
}

func (e Event) String() string {
	s := fmt.Sprintf("#%d %s user=%q epoch=%d", e.Seq, e.Kind, e.User, e.Epoch)
	if e.Detail != "" {
		s += " (" + e.Detail + ")"
	}
	return s
}

// auditor dispatches audit events to the application callback from its own
// goroutine, so a slow consumer never blocks the protocol.
type auditor struct {
	q    *queue.Queue[Event]
	done chan struct{}

	// mu serializes Seq assignment with the enqueue, so Seq order and
	// delivery order agree even when two goroutines emit concurrently.
	mu  sync.Mutex
	seq uint64
}

func newAuditor(sink func(Event)) *auditor {
	a := &auditor{
		q:    queue.New[Event](),
		done: make(chan struct{}),
	}
	go func() {
		defer close(a.done)
		for {
			ev, err := a.q.Pop()
			if err != nil {
				return
			}
			sink(ev)
		}
	}()
	return a
}

// emit assigns the next trace ID and enqueues the event; drops are
// impossible (unbounded queue) and a closed auditor (leader shutting down)
// ignores late events.
func (a *auditor) emit(ev Event) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.seq++
	ev.Seq = a.seq
	_ = a.q.Push(ev)
	a.mu.Unlock()
}

// current returns the last assigned trace ID — the audit high-water mark
// stamped onto replication deltas so a promoted standby continues the trace
// instead of restarting it.
func (a *auditor) current() uint64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.seq
}

// seed advances the trace ID to at least seq; a promoted standby seeds from
// the replicated high-water mark so its events extend the primary's trace.
func (a *auditor) seed(seq uint64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	if seq > a.seq {
		a.seq = seq
	}
	a.mu.Unlock()
}

// stop drains pending events and waits for the dispatcher to exit.
func (a *auditor) stop() {
	if a == nil {
		return
	}
	a.q.Close()
	<-a.done
}
