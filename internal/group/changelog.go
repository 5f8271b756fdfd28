package group

// The change log: every leader decision is written once, as one
// Seq-numbered record, and the audit stream (Config.OnEvent) and the
// replication stream (internal/replica) are two projections of it.
//
// Order rule: a membership record precedes the rotation it triggers in both
// projections, and carries the epoch in force when the change happened.

import (
	"fmt"
	"sync"

	"enclaves/internal/queue"
	"enclaves/internal/replica"
	"enclaves/internal/wire"
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
	// Seq is the record's position in the leader's change log, the one
	// sequence audit events and replication deltas share: event N was
	// recorded before event N+1, and delivery order equals Seq order. Seq
	// strictly increases but may skip numbers taken by replication-only
	// records (session syncs, key-tree changes, an armed rekey window).
	// Correlate with the member-side member.Event.Seq (the AdminMsg pipeline
	// sequence) to follow one broadcast leader -> member across logs.
	Seq  uint64
	Kind EventKind
	// User is the member concerned (empty for Rekeyed).
	User string
	// Epoch is the group-key epoch in force when the change happened: for a
	// membership event the epoch before the rotation it triggers (which
	// follows it in the stream), for Rekeyed the epoch rotated to.
	Epoch uint64
	// Detail carries diagnostic context: the rejection reason, the eviction
	// cause, and for Rekeyed why the epoch moved — "join <user>",
	// "leave <user>" (evictions included), "expel <user>", "manual",
	// "promotion".
	Detail string
}

func (e Event) String() string {
	s := fmt.Sprintf("#%d %s user=%q epoch=%d", e.Seq, e.Kind, e.User, e.Epoch)
	if e.Detail != "" {
		s += " (" + e.Detail + ")"
	}
	return s
}

// changeKind classifies one change-log record.
type changeKind uint8

const (
	changeJoined changeKind = iota + 1
	changeResumed
	changeLeft
	changeExpelled
	changeEvicted
	changeRekeyed
	changeRejected
	changeSessionSync // a member's ack advanced its chained nonce
	changeTree        // the LKH key tree's records changed
)

// projections is the whole mapping from a record's kind to the EventKind an
// operator sees and the ReplDeltaKind a standby applies; zero means the
// record stays out of that stream.
var projections = [...]struct {
	event EventKind
	delta wire.ReplDeltaKind
}{
	changeJoined:      {EventJoined, wire.ReplMemberUp},
	changeResumed:     {EventResumed, wire.ReplMemberUp},
	changeLeft:        {EventLeft, wire.ReplMemberDown},
	changeExpelled:    {EventExpelled, wire.ReplMemberDown},
	changeEvicted:     {EventEvicted, wire.ReplMemberDown},
	changeRekeyed:     {EventRekeyed, wire.ReplRekey},
	changeRejected:    {EventRejected, 0},
	changeSessionSync: {0, wire.ReplSessionSync},
	changeTree:        {0, wire.ReplLKH},
}

// change is one change-log record. user, epoch and detail are all the audit
// projection reads; repl carries the rest of the standby's payload (session
// key, nonce and sequence, group key, tree records), so key material never
// reaches an Event.
type change struct {
	kind   changeKind
	user   string
	epoch  uint64
	detail string
	repl   wire.ReplDeltaPayload
}

// changeLog numbers records and hands them to its subscribers: the audit
// dispatcher, which calls Config.OnEvent from its own goroutine so a slow
// consumer never blocks the protocol, and the replication sender. Both only
// enqueue, under mu, so Seq order is delivery order in each. mu is its own
// lock because session syncs and rejections are recorded off Leader.mu. A
// nil log (neither OnEvent nor ReplKey configured) records nothing.
type changeLog struct {
	mu    sync.Mutex
	seq   uint64
	audit *queue.Queue[Event] // nil without OnEvent
	done  chan struct{}
	repl  *replica.Sender // nil without ReplKey
}

func newChangeLog(sink func(Event), repl *replica.Sender) *changeLog {
	if sink == nil && repl == nil {
		return nil
	}
	l := &changeLog{repl: repl}
	if sink != nil {
		l.audit = queue.New[Event]()
		l.done = make(chan struct{})
		go func() {
			defer close(l.done)
			for {
				ev, err := l.audit.Pop()
				if err != nil {
					return
				}
				sink(ev)
			}
		}()
	}
	return l
}

// record assigns c the next Seq and enqueues its projections. Drops are
// impossible on the audit side (unbounded queue), and a stopped log (leader
// shutting down) ignores late records.
func (l *changeLog) record(c change) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	p := projections[c.kind]
	if p.event != 0 && l.audit != nil {
		_ = l.audit.Push(Event{Seq: l.seq, Kind: p.event, User: c.user, Epoch: c.epoch, Detail: c.detail})
	}
	if p.delta != 0 && l.repl != nil {
		d := c.repl
		d.Kind, d.AuditSeq, d.User, d.Epoch = p.delta, l.seq, c.user, c.epoch
		l.repl.Publish(d)
	}
}

// ping sends the standby a replication ping carrying the current Seq.
func (l *changeLog) ping() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.repl.Publish(wire.ReplDeltaPayload{Kind: wire.ReplPing, AuditSeq: l.seq})
}

// seed advances the Seq to at least seq; a promoted standby seeds from the
// replicated mark so its log extends the primary's instead of restarting.
func (l *changeLog) seed(seq uint64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.seq = max(l.seq, seq)
	l.mu.Unlock()
}

// stop drains pending audit events and waits for the dispatcher to exit.
func (l *changeLog) stop() {
	if l == nil || l.audit == nil {
		return
	}
	l.audit.Close()
	<-l.done
}
