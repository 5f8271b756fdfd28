// Package faultnet is the one network of Section 3.1, as a Link that sits in
// front of any transport.Conn — an in-memory pipe or a TCP mux stream alike.
// That network "can lose or delay messages", and whoever controls it can
// "read all the messages exchanged, replay old messages, and send arbitrary
// messages they can construct". The adversary's moves are methods: Captured,
// SetFilter, Inject, Replay/ReplayMatching. The unreliable medium is the
// Plan — frame drops, duplication, reordering, delays, timed partitions and
// connection resets, every probabilistic decision drawn from a seeded
// math/rand PRNG so a chaos run is reproducible from its seed — plus
// Sever/Restore for crashes. A zero Plan is the pure adversary link of the
// Section 2.3 attack scenarios, under which the protocol must stay secure; a
// Plan with no filter installed is the lossy link of the chaos soaks, under
// which it must stay live.
//
// Every frame entering a Link passes the same stages in the same order:
// capture, filter, sever, dice. Only the last consumes PRNG draws, so a
// frame the adversary filtered or a crash swallowed never shifts the
// decisions made for the frames around it.
package faultnet

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"enclaves/internal/metrics"
	"enclaves/internal/queue"
	"enclaves/internal/transport"
	"enclaves/internal/wire"
)

// Process-wide totals across every Link, mirroring the per-link Stats so a
// metrics snapshot shows how much chaos a run injected without walking the
// connection list.
var (
	mDelivered  = metrics.NewCounter("faultnet_delivered_total")
	mDropped    = metrics.NewCounter("faultnet_dropped_total")
	mDuplicated = metrics.NewCounter("faultnet_duplicated_total")
	mReordered  = metrics.NewCounter("faultnet_reordered_total")
	mResets     = metrics.NewCounter("faultnet_resets_total")
	// mSeverDrops counts frames blackholed by Sever (also included in
	// mDropped), so a failover test can see its kill switch working.
	mSeverDrops = metrics.NewCounter("faultnet_sever_drops_total")
)

// DirFaults configures fault injection for one direction of a link.
// Probabilities are in [0, 1]; zero values inject nothing.
type DirFaults struct {
	// Drop is the probability a frame is silently discarded.
	Drop float64
	// Dup is the probability a delivered frame is delivered twice.
	Dup float64
	// Reorder is the probability a frame is held back and delivered only
	// after at least one later frame has overtaken it.
	Reorder float64
	// HoldMax bounds how many frames may be held for reordering at once;
	// zero means 4.
	HoldMax int
	// DelayMin/DelayMax bound a uniform per-frame head-of-line delay.
	// Both zero means no delay.
	DelayMin, DelayMax time.Duration
	// ResetAfter tears the whole connection down (simulating a peer RST)
	// after this many frames have entered this direction; zero disables.
	ResetAfter int
}

// Partition is a timed bidirectional blackhole: frames in either direction
// are dropped while the elapsed time since Wrap is in [Start, Stop).
type Partition struct {
	Start, Stop time.Duration
}

// Plan declares the faults of one wrapped connection. The zero value
// injects nothing: a transparent wrapper, on which only the adversary's
// methods act.
type Plan struct {
	// Seed seeds the PRNG driving every probabilistic decision. Two runs
	// with the same seed and the same frame sequence make identical
	// decisions.
	Seed int64
	// Outbound faults apply to frames sent by the wrapped endpoint;
	// Inbound faults apply to frames it receives.
	Outbound, Inbound DirFaults
	// Partitions blackhole both directions during their windows.
	Partitions []Partition
	// Heal, when positive, stops ALL fault injection once that much time
	// has elapsed — the chaos window closes and the link behaves cleanly.
	// Convergence tests use this: inject chaos, heal, assert recovery.
	Heal time.Duration
}

// Stats counts what the link did to the frames crossing it. Retrieve with
// Link.Stats; all fields are totals across both directions.
type Stats struct {
	Delivered  uint64
	Dropped    uint64 // includes filtered, severed and partitioned frames
	Duplicated uint64
	Reordered  uint64
	Resets     uint64
}

// Direction names the flow of a frame through a Link, in the Plan's terms.
type Direction uint8

const (
	// Outbound frames were sent by the wrapped endpoint, toward its peer.
	Outbound Direction = iota + 1
	// Inbound frames were sent by the peer, toward the wrapped endpoint.
	Inbound
)

// Captured is one frame observed by the adversary.
type Captured struct {
	Dir Direction
	Env wire.Envelope
}

// FilterFunc inspects an in-flight frame; returning false drops it.
type FilterFunc func(Direction, wire.Envelope) bool

// Link is a connection whose every frame crosses the network of Section
// 3.1: recorded, droppable by a filter, subject to the Plan's faults, and
// open to injected and replayed frames in either direction.
type Link struct {
	inner transport.Conn
	plan  Plan
	start time.Time

	outQ *queue.Queue[wire.Envelope] // Send -> out pump
	inQ  *queue.Queue[wire.Envelope] // in pump -> Recv
	raw  *queue.Queue[wire.Envelope] // inner's Push -> in pump
	// outDone closes when the outbound pump has exited and hung up, which is
	// what Close waits for.
	outDone chan struct{}
	closed  atomic.Bool // Close was called

	mu       sync.Mutex // guards captured and filter
	captured []Captured
	filter   FilterFunc

	delivered, dropped, duplicated, reordered, resets atomic.Uint64

	// severed is the crash/restart primitive: while set, both directions
	// blackhole every frame — Sever simulates the process dying (or the host
	// dropping off the network) without tearing the connection objects down,
	// and Restore brings it back. The flag is checked BEFORE any PRNG draw,
	// so a sever window never shifts the deterministic decision stream of
	// the frames around it: a run with a sever and one without make
	// identical per-frame decisions for every frame that reaches the dice.
	severed atomic.Bool
}

var _ transport.Conn = (*Link)(nil)

// holdFlushIdle is how long a pump waits with held (reordered) frames and
// no new input before flushing them anyway, so a held frame cannot be
// starved forever on a quiet link.
const holdFlushIdle = 50 * time.Millisecond

// Wrap puts conn behind a Link. Frames the endpoint sends pass the Outbound
// faults before reaching the peer; frames the peer sends pass the Inbound
// faults before Recv returns them.
func Wrap(conn transport.Conn, plan Plan) *Link {
	c := &Link{
		inner:   conn,
		plan:    plan,
		start:   time.Now(),
		outQ:    queue.New[wire.Envelope](),
		inQ:     queue.New[wire.Envelope](),
		raw:     queue.New[wire.Envelope](),
		outDone: make(chan struct{}),
	}
	// Each direction gets its own PRNG stream (derived deterministically
	// from the seed) and its own single pump goroutine, so the decision
	// sequence per direction depends only on the seed and the frame order.
	go func() {
		defer close(c.outDone)
		c.pump(c.outQ, plan.Outbound, rand.New(rand.NewSource(plan.Seed)), func(e wire.Envelope) bool {
			return c.inner.Send(e) == nil
		})
		// Nothing more will be sent: Close has drained the queue, or the
		// connection died under a frame.
		c.hangUp()
	}()
	// The wrapped connection's reader admits each arriving frame.
	conn.Consume(func(e wire.Envelope, ok bool) {
		if !ok {
			c.raw.Close()
		} else if c.admit(Inbound, e) {
			c.raw.Push(e)
		}
	})
	go func() {
		c.pump(c.raw, plan.Inbound, rand.New(rand.NewSource(plan.Seed^0x5DEECE66D)), func(e wire.Envelope) bool {
			return c.inQ.Push(e) == nil
		})
		// The peer hung up, which a transparent wrapper passes on: Recv
		// drains what survived, then reports it. A crashed host hears no
		// FIN, though — a severed link stays half-open until a later send
		// finds the connection dead.
		if !c.severed.Load() {
			c.hangUp()
		}
	}()
	return c
}

// Pipe returns two connected in-memory endpoints with the Link on the A side
// (Outbound = A to B, Inbound = B to A). The B side is a plain clean
// endpoint.
func Pipe(plan Plan) (*Link, transport.Conn) {
	a, b := transport.Pipe()
	return Wrap(a, plan), b
}

// admit is the head of the ingress order, run before a frame reaches its
// pump: the adversary records it, then the filter may drop it.
func (c *Link) admit(dir Direction, e wire.Envelope) bool {
	c.mu.Lock()
	c.captured = append(c.captured, Captured{Dir: dir, Env: e})
	filter := c.filter
	c.mu.Unlock()
	if filter != nil && !filter(dir, e) {
		c.countDrop()
		return false
	}
	return true
}

// Send hands one envelope to the network. A nil error means the adversary
// has recorded it, not that it will arrive: the sender cannot tell.
func (c *Link) Send(e wire.Envelope) error {
	if c.outQ.Closed() {
		return transport.ErrClosed
	}
	if c.admit(Outbound, e) && c.outQ.Push(e) != nil {
		return transport.ErrClosed
	}
	return nil
}

// SendBatch queues each envelope in order; there is no flush to batch.
func (c *Link) SendBatch(batch []transport.Outgoing) error {
	return transport.SendEach(c, batch)
}

// Attach has the wrapped connection's writer run pull and Send each frame;
// the Link's pump never runs it: Close waits for the pump under a leader's
// lock, the lock a Pull waits on.
func (c *Link) Attach(pull transport.Pull) {
	c.inner.Attach(func(buf []transport.Outgoing) []transport.Outgoing {
		buf = pull(buf)
		c.SendBatch(buf)
		clear(buf)
		return buf[:0]
	})
}

func (c *Link) Wake() { c.inner.Wake() }

// Consume pushes each surviving inbound envelope from one goroutine.
func (c *Link) Consume(push transport.Push) { transport.Feed(c.inQ, push, c.closed.Load) }

// Recv returns the next surviving inbound envelope.
func (c *Link) Recv() (wire.Envelope, error) {
	e, err := c.inQ.Pop()
	if err != nil {
		return e, transport.ErrClosed
	}
	return e, nil
}

// Close stops intake and waits for the outbound pump to finish the frames
// Send already accepted and hang up. Those frames still meet the plan's
// faults, but nobody waits out their delays, so the drain is bounded by one
// DelayMax. A clean link therefore loses nothing sent before Close.
func (c *Link) Close() error {
	c.closed.Store(true)
	c.outQ.Close()
	<-c.outDone
	return nil
}

// hangUp tears down the link and the underlying connection at once, with no
// drain: how either pump ends, and all a reset does.
func (c *Link) hangUp() {
	c.outQ.Close()
	c.inner.Close()
	c.raw.Close()
	c.inQ.Close()
}

// SetFilter installs a drop rule applied to subsequent frames. A nil filter
// delivers everything.
func (c *Link) SetFilter(f FilterFunc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.filter = f
}

// Captured returns a copy of every frame observed so far, in order: each
// frame whose Send has returned, and each peer frame that has arrived.
// Injected frames are the adversary's own and are not recorded.
func (c *Link) Captured() []Captured {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Captured(nil), c.captured...)
}

// Inject delivers an adversary-crafted frame in the given direction, as if
// the corresponding endpoint had sent it. It is the network itself acting,
// so the frame meets neither the filter nor the plan's faults.
func (c *Link) Inject(dir Direction, e wire.Envelope) error {
	if c.outQ.Closed() {
		return transport.ErrClosed
	}
	if dir == Outbound {
		return c.inner.Send(e)
	}
	if c.inQ.Push(e) != nil {
		return transport.ErrClosed
	}
	return nil
}

// Replay re-delivers the i-th captured frame to its original destination.
func (c *Link) Replay(i int) error {
	c.mu.Lock()
	if i < 0 || i >= len(c.captured) {
		c.mu.Unlock()
		return fmt.Errorf("faultnet: replay index %d out of range", i)
	}
	f := c.captured[i]
	c.mu.Unlock()
	return c.Inject(f.Dir, f.Env)
}

// ReplayMatching re-delivers every captured frame satisfying pred, in
// capture order, and returns how many were replayed.
func (c *Link) ReplayMatching(pred func(Captured) bool) (int, error) {
	replayed := 0
	for _, f := range c.Captured() {
		if !pred(f) {
			continue
		}
		if err := c.Inject(f.Dir, f.Env); err != nil {
			return replayed, err
		}
		replayed++
	}
	return replayed, nil
}

// Sever blackholes the link in both directions — the crash half of the
// crash/restart primitive. Unlike Close, the endpoints stay alive: Send
// still accepts frames (they die in the pipeline) and Recv keeps blocking,
// which is exactly what a peer of a crashed process observes.
func (c *Link) Sever() { c.severed.Store(true) }

// Restore lifts a Sever; frames flow (and consume PRNG draws) again.
// Frames swallowed during the window stay lost — a restart recovers the
// host, not the packets.
func (c *Link) Restore() { c.severed.Store(false) }

// Severed reports whether the link is currently severed.
func (c *Link) Severed() bool { return c.severed.Load() }

// Stats returns the fault counters so far.
func (c *Link) Stats() Stats {
	return Stats{
		Delivered:  c.delivered.Load(),
		Dropped:    c.dropped.Load(),
		Duplicated: c.duplicated.Load(),
		Reordered:  c.reordered.Load(),
		Resets:     c.resets.Load(),
	}
}

func (c *Link) countDrop() {
	c.dropped.Add(1)
	mDropped.Inc()
}

// healed reports whether the chaos window has closed.
func (c *Link) healed() bool {
	return c.plan.Heal > 0 && time.Since(c.start) >= c.plan.Heal
}

// partitioned reports whether a partition window is currently open.
func (c *Link) partitioned() bool {
	elapsed := time.Since(c.start)
	for _, p := range c.plan.Partitions {
		if elapsed >= p.Start && elapsed < p.Stop {
			return true
		}
	}
	return false
}

// pump applies one direction's faults to the frames its ingress admitted.
// It is the only goroutine touching its PRNG, so the decision stream is a
// pure function of seed and frame order. deliver reports whether the
// destination is still accepting frames.
func (c *Link) pump(src *queue.Queue[wire.Envelope], f DirFaults, rng *rand.Rand, deliver func(wire.Envelope) bool) {
	holdMax := f.HoldMax
	if holdMax <= 0 {
		holdMax = 4
	}
	// severDrop blackholes one frame if the link is severed. A crash loses
	// held frames too: nothing a dead process buffered ever reaches the wire.
	severDrop := func() bool {
		if !c.severed.Load() {
			return false
		}
		c.countDrop()
		mSeverDrops.Inc()
		return true
	}
	emit := func(e wire.Envelope) bool {
		if !deliver(e) {
			return false
		}
		c.delivered.Add(1)
		mDelivered.Inc()
		return true
	}
	var held []wire.Envelope
	flushHeld := func() {
		for _, h := range held {
			if !severDrop() {
				emit(h)
			}
		}
		held = held[:0]
	}
	// Without reordering nothing is ever held, so the pump can block on
	// Pop; with reordering it polls so held frames can be flushed after an
	// idle period instead of starving on a quiet link.
	next := func() (wire.Envelope, bool) {
		if f.Reorder <= 0 {
			e, err := src.Pop()
			return e, err == nil
		}
		idleSince := time.Now()
		for {
			// Read the flag first: a queue seen closed and then empty has
			// nothing more to give.
			closed := src.Closed()
			if e, ok := src.TryPop(); ok || closed {
				return e, ok
			}
			if len(held) > 0 && time.Since(idleSince) > holdFlushIdle {
				flushHeld()
				idleSince = time.Now()
			}
			time.Sleep(time.Millisecond)
		}
	}
	count := 0
	for {
		e, ok := next()
		if !ok {
			flushHeld()
			return
		}
		count++

		// Sever overrides everything, including a closed chaos window: a
		// crashed host delivers nothing no matter how clean the link is. The
		// drop happens before any PRNG draw, preserving decision alignment.
		if severDrop() {
			continue
		}
		if c.healed() {
			flushHeld()
			if !emit(e) {
				return
			}
			continue
		}
		if f.ResetAfter > 0 && count > f.ResetAfter {
			c.resets.Add(1)
			mResets.Inc()
			c.hangUp()
			return
		}
		if c.partitioned() {
			c.countDrop()
			continue
		}
		// Every frame consumes one PRNG draw per decision in a fixed
		// order, so later decisions stay aligned across runs regardless of
		// which earlier branches were taken.
		drop := rng.Float64() < f.Drop
		dup := rng.Float64() < f.Dup
		reorder := rng.Float64() < f.Reorder
		var delay time.Duration
		if f.DelayMax > f.DelayMin {
			delay = f.DelayMin + time.Duration(rng.Int63n(int64(f.DelayMax-f.DelayMin)))
		} else {
			delay = f.DelayMin
		}
		if drop {
			c.countDrop()
			continue
		}
		// A closing link still rolls the delay but does not sit it out.
		if delay > 0 && !src.Closed() {
			time.Sleep(delay)
		}
		if reorder && len(held) < holdMax {
			c.reordered.Add(1)
			mReordered.Inc()
			held = append(held, e)
			continue
		}
		if !emit(e) {
			return
		}
		if dup {
			deliver(e)
			c.duplicated.Add(1)
			mDuplicated.Inc()
		}
		// A delivered frame has overtaken everything held; release them.
		flushHeld()
	}
}

// Network puts a Link in front of every connection it dials, each with its
// own deterministic seed (base seed + dial index). Dial order therefore
// determines seeds; keep it deterministic in reproducible tests. Links wrap
// the dialing side only, which covers both directions of the connection.
type Network struct {
	dial  func(addr string) (transport.Conn, error)
	plan  Plan
	dials atomic.Int64

	mu    sync.Mutex
	conns []*Link
}

// NewNetwork returns a network that reaches addresses through dial — an
// in-memory network's Dial, transport.DialTCP — and runs every connection
// under plan.
func NewNetwork(dial func(addr string) (transport.Conn, error), plan Plan) *Network {
	return &Network{dial: dial, plan: plan}
}

// Dial connects through a Link. The i-th dial uses seed plan.Seed+i, so
// concurrent sessions see independent but reproducible fault streams.
func (n *Network) Dial(addr string) (*Link, error) {
	raw, err := n.dial(addr)
	if err != nil {
		return nil, err
	}
	p := n.plan
	p.Seed += n.dials.Add(1) - 1
	c := Wrap(raw, p)
	n.mu.Lock()
	n.conns = append(n.conns, c)
	n.mu.Unlock()
	return c, nil
}

// each runs f on every connection dialed so far.
func (n *Network) each(f func(*Link)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, c := range n.conns {
		f(c)
	}
}

// SeverAll severs every connection dialed so far — the whole-host crash a
// failover test kills the primary with when members share one network.
func (n *Network) SeverAll() { n.each((*Link).Sever) }

// RestoreAll lifts every sever.
func (n *Network) RestoreAll() { n.each((*Link).Restore) }

// Stats sums the fault counters across every connection dialed so far.
func (n *Network) Stats() Stats {
	var total Stats
	n.each(func(c *Link) {
		s := c.Stats()
		total.Delivered += s.Delivered
		total.Dropped += s.Dropped
		total.Duplicated += s.Duplicated
		total.Reordered += s.Reordered
		total.Resets += s.Resets
	})
	return total
}
