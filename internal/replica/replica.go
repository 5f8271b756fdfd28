// Package replica implements the leader-replication channel of the hot
// failover design: a primary leader streams its membership, epoch, group
// key and audit state to one standby in real time, sealed under a
// pre-shared replication key K_r with chained nonces for freshness — the
// same chaining discipline as the verified AdminMsg pipeline, so a
// replayed, reordered or dropped delta breaks the chain and forces the
// standby to re-subscribe for a fresh snapshot.
//
// The package is deliberately below internal/group in the dependency
// order. The leader's change log (internal/group) is the source: every
// replicated record reaches the Sender as one wire.ReplDeltaPayload whose
// AuditSeq is the record's position in that log, and the Sender adds only
// the chain fields. The standby process runs a Standby until the primary is
// declared dead, then hands the replicated State to group's promotion path.
package replica

import (
	"errors"
	"fmt"
	"sync"

	"enclaves/internal/core"
	"enclaves/internal/crypto"
	"enclaves/internal/metrics"
	"enclaves/internal/queue"
	"enclaves/internal/transport"
	"enclaves/internal/wire"
)

var (
	mDeltasSent   = metrics.NewCounter("replica_deltas_sent_total")
	mDeltasRecv   = metrics.NewCounter("replica_deltas_recv_total")
	mSnapshots    = metrics.NewCounter("replica_snapshots_total")
	mChainBreaks  = metrics.NewCounter("replica_chain_breaks_total")
	mSubDrops     = metrics.NewCounter("replica_subscriber_drops_total")
	mHellosBad    = metrics.NewCounter("replica_bad_hellos_total")
	mPrimaryDead  = metrics.NewCounter("replica_primary_dead_total")
	mResubscribes = metrics.NewCounter("replica_resubscribes_total")
)

// ErrBadHello is returned for a subscription request that fails
// authentication or names the wrong primary.
var ErrBadHello = errors.New("replica: bad subscription hello")

// State is the standby's replica of the primary's group state. Members maps
// each user to its replicated session: everything the promoted standby
// needs to resume it without a password re-handshake (see SessionState).
type State struct {
	Primary  string
	Epoch    uint64
	GroupKey crypto.Key
	AuditSeq uint64 // Seq of the last change-log record applied
	Members  map[string]wire.ReplMember

	// LKH key-tree replica, present when the primary rekeys through a
	// logical key hierarchy. Tree maps node ID to its replicated record; a
	// promoted standby rebuilds the tree from it and rotates only the dirty
	// paths instead of cutting a whole new flat key.
	LKHArity int
	Tree     map[uint64]wire.ReplLKHNode
}

// Clone deep-copies the state.
func (st State) Clone() State {
	out := st
	out.Members = make(map[string]wire.ReplMember, len(st.Members))
	for u, s := range st.Members {
		out.Members[u] = s
	}
	if st.Tree != nil {
		out.Tree = make(map[uint64]wire.ReplLKHNode, len(st.Tree))
		for id, n := range st.Tree {
			out.Tree[id] = n
		}
	}
	return out
}

// Apply folds one delta into the state; its chain fields are ignored.
// Deltas arrive in change-log order, so AuditSeq never moves back.
func (st *State) Apply(d wire.ReplDeltaPayload) {
	st.AuditSeq = d.AuditSeq
	switch d.Kind {
	case wire.ReplMemberUp:
		st.Members[d.User] = wire.ReplMember{User: d.User, SessionKey: d.Session, Nonce: d.Nonce, Seq: d.Seq}
	case wire.ReplMemberDown:
		delete(st.Members, d.User)
	case wire.ReplRekey:
		st.Epoch = d.Epoch
		st.GroupKey = d.GroupKey
	case wire.ReplLKH:
		if st.Tree == nil {
			st.Tree = make(map[uint64]wire.ReplLKHNode, len(d.Nodes))
		}
		for _, n := range d.Nodes {
			st.Tree[n.ID] = n
		}
		for _, id := range d.Removed {
			delete(st.Tree, id)
		}
	case wire.ReplSessionSync:
		if s, ok := st.Members[d.User]; ok {
			s.Nonce = d.Nonce
			s.Seq = d.Seq
			st.Members[d.User] = s
		}
	case wire.ReplPing:
		// Chain advance only.
	}
}

// SessionState converts a replicated member session into the engine-level
// resume state.
func (st State) SessionState(user string) (core.SessionState, bool) {
	s, ok := st.Members[user]
	if !ok {
		return core.SessionState{}, false
	}
	return core.SessionState{
		User:       user,
		Leader:     st.Primary,
		SessionKey: s.SessionKey,
		Nonce:      s.Nonce,
		Seq:        s.Seq,
	}, true
}

// --- primary side ---

// item is one unit of the sender's outbound queue: a snapshot (queued at
// attach time, so it precedes every later delta) or a delta.
type item struct {
	snap  *wire.ReplStatePayload
	delta wire.ReplDeltaPayload
}

// subscriber is the attached standby.
type subscriber struct {
	standby string
	conn    transport.Conn
	q       *queue.Queue[item]
}

// Sender is the primary-side replication endpoint: it authenticates the
// standby's subscription, then streams the snapshot and every subsequent
// delta over the sealed, nonce-chained channel. One subscriber at a time; a
// new subscription replaces the previous one. Publishing never blocks: the
// queue is bounded, and an overflowing (stalled) subscriber is dropped, so
// a dead standby cannot stall the primary — the standby re-subscribes and
// gets a fresh snapshot.
type Sender struct {
	primary string
	cipher  *crypto.Cipher // cached AEAD under K_r
	logf    func(format string, args ...any)

	mu  sync.Mutex
	sub *subscriber
}

// DefaultQueueLimit bounds the subscriber's outbound delta queue.
const DefaultQueueLimit = 4096

// NewSender returns a replication sender for the named primary, sealing
// under the pre-shared replication key. logf, if non-nil, hears why a
// standby was dropped.
func NewSender(primary string, key crypto.Key, logf func(format string, args ...any)) (*Sender, error) {
	if primary == "" {
		return nil, fmt.Errorf("replica: primary name must be non-empty")
	}
	c, err := crypto.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("replica: %w", err)
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Sender{primary: primary, cipher: c, logf: logf}, nil
}

// HandleHello authenticates a standby's subscription request (the first
// frame of a replication connection). It returns the standby's name and
// chain nonce N0 for Attach.
func (s *Sender) HandleHello(env wire.Envelope) (string, crypto.Nonce, error) {
	if env.Type != wire.TypeReplState {
		mHellosBad.Inc()
		return "", crypto.Nonce{}, fmt.Errorf("%w: got %s", ErrBadHello, env.Type)
	}
	plain, err := s.cipher.Open(env.Payload, env.Header())
	if err != nil {
		mHellosBad.Inc()
		return "", crypto.Nonce{}, fmt.Errorf("%w: %v", ErrBadHello, err)
	}
	p, err := wire.UnmarshalReplState(plain)
	if err != nil {
		mHellosBad.Inc()
		return "", crypto.Nonce{}, fmt.Errorf("%w: %v", ErrBadHello, err)
	}
	if !p.Hello || p.Primary != s.primary || p.Standby == "" {
		mHellosBad.Inc()
		return "", crypto.Nonce{}, fmt.Errorf("%w: hello=%v primary=%q", ErrBadHello, p.Hello, p.Primary)
	}
	return p.Standby, p.Next, nil
}

// Attach installs the subscriber and queues its snapshot; the writer fills
// in the names and chain nonces. The caller builds the snapshot and calls
// Attach inside the same critical section that serializes its Publish
// calls, so the snapshot linearizes correctly against them; Attach itself
// only enqueues — sealing and sending happen on the subscriber's writer
// goroutine.
func (s *Sender) Attach(conn transport.Conn, standby string, n0 crypto.Nonce, snap wire.ReplStatePayload) {
	sub := &subscriber{
		standby: standby,
		conn:    conn,
		q:       queue.NewBounded[item](DefaultQueueLimit),
	}
	_ = sub.q.Push(item{snap: &snap})
	s.mu.Lock()
	old := s.sub
	s.sub = sub
	s.mu.Unlock()
	if old != nil {
		s.drop(old, "replaced by new subscription")
	}
	go s.writer(sub, n0)
}

// Publish enqueues one delta for the subscriber, if any; the writer fills
// in Primary, Standby and the chain nonces. On overflow the subscriber is
// dropped (it will re-subscribe for a fresh snapshot).
func (s *Sender) Publish(d wire.ReplDeltaPayload) {
	s.mu.Lock()
	sub := s.sub
	s.mu.Unlock()
	if sub == nil {
		return
	}
	if err := sub.q.Push(item{delta: d}); errors.Is(err, queue.ErrFull) {
		mSubDrops.Inc()
		s.drop(sub, "queue overflow")
	}
}

// Detach drops the current subscriber, if any (leader shutdown).
func (s *Sender) Detach() {
	s.mu.Lock()
	sub := s.sub
	s.mu.Unlock()
	if sub != nil {
		s.drop(sub, "sender detached")
	}
}

// drop ends sub, unsubscribing it if it is still the current subscriber,
// and says why.
func (s *Sender) drop(sub *subscriber, reason string) {
	s.mu.Lock()
	if s.sub == sub {
		s.sub = nil
	}
	s.mu.Unlock()
	s.logf("replica: standby %q dropped: %s", sub.standby, reason)
	sub.q.Close()
	_ = sub.conn.Close()
}

// writer drains the subscriber's queue, sealing each item with the next
// link of the nonce chain and writing it to the connection — entirely
// outside the caller's locks.
func (s *Sender) writer(sub *subscriber, n0 crypto.Nonce) {
	last := n0
	for {
		it, err := sub.q.Pop()
		if err != nil {
			return
		}
		var env wire.Envelope
		var plain crypto.Plaintext
		var next crypto.Nonce
		if it.snap != nil {
			p := *it.snap
			p.Standby, p.Primary, p.Echo = sub.standby, s.primary, last
			env = wire.Envelope{Type: wire.TypeReplState, Sender: s.primary, Receiver: sub.standby}
			plain, next = p.Marshal()
			mSnapshots.Inc()
		} else {
			d := it.delta
			d.Primary, d.Standby, d.Echo = s.primary, sub.standby, last
			env = wire.Envelope{Type: wire.TypeReplDelta, Sender: s.primary, Receiver: sub.standby}
			plain, next = d.Marshal()
		}
		box, err := s.cipher.SealPlaintext(plain, env.Header())
		if err != nil {
			s.drop(sub, "seal failed")
			return
		}
		env.Payload = box
		if err := sub.conn.Send(env); err != nil {
			s.drop(sub, "send failed")
			return
		}
		mDeltasSent.Inc()
		last = next
	}
}
