//go:build linux

package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"enclaves/internal/crypto"
	"enclaves/internal/member"
	"enclaves/internal/metrics"
	"enclaves/internal/transport"
)

const (
	password    = "bench"
	joinBurst   = 16 // concurrent joins during set-up
	joinTimeout = 60 * time.Second
	convTimeout = 10 * time.Second
	drainQuiet  = 60 * time.Millisecond  // between phases
	finalQuiet  = 300 * time.Millisecond // before tear-down, which loses what is still in flight
	drainCap    = 5 * time.Second
	memberPause = 5 * time.Millisecond // between changes of the membership phase

	// The scheduler's timer is armed an eighth of the gap since the last
	// send, within these limits, before a send is due; the rest is waited
	// out yielding the processor. A timer wake-up overshoots by 40 us at the
	// median when the core has been idle for a moment and by 300 us when it
	// has been idle for long; armed on the dot, that lateness was a fifth of
	// tenants_small's delivery p50.
	minPacerLead = 80 * time.Microsecond
	maxPacerLead = 500 * time.Microsecond

	phaseIdle = iota
	phasePaced
	phaseSat
	phaseMember
)

// Payload layout. The checksum covers everything before it and is folded
// with the schedule's seed tag, so a frame from another run, another tenant
// or a damaged one cannot verify.
const (
	offIntended = 0  // int64: ns since the run origin at which the send was due
	offSent     = 8  // int64: ns since the run origin at which SendData was called
	offSeq      = 16 // uint32: multicast number within its group
	offGroup    = 20 // uint16
	offSender   = 22 // uint16
	offPhase    = 24 // uint8; the checksum is the last 4 bytes
)

// failures counts failed operations and keeps the first few for the report.
type failures struct {
	n       atomic.Int64
	mu      sync.Mutex
	samples []string
}

func (f *failures) add(format string, args ...any) {
	f.n.Add(1)
	f.mu.Lock()
	if len(f.samples) < 8 {
		f.samples = append(f.samples, fmt.Sprintf(format, args...))
	}
	f.mu.Unlock()
}

// mcRec is the sender's record of one multicast.
type mcRec struct {
	intended int64
	sender   uint16
	phase    uint8
	// inWindow: a membership change of the group was in flight while this
	// was sealed. A sender that already holds the new key can then reach a
	// receiver that does not yet, which drops the frame by design, so
	// delivery of these is allowed but not required.
	inWindow bool
}

type groupState struct {
	idx     int
	id      string
	members []*session
	churner *session // last member
	peer    int      // member whose receipt releases the next saturated send
	conv    *convTracker
	// win is odd while a membership change of this group is in flight.
	win atomic.Uint64

	mu      sync.Mutex // serialises send: scheduler, then the peer's consumer
	sent    []mcRec
	scratch []byte
}

// session is one member slot of one group. The member behind it is replaced
// on every rejoin; receive-side state lives here and is only touched by the
// slot's current consumer goroutine.
type session struct {
	grp      *groupState
	idx      int
	user     string
	key      crypto.Key
	mux      *transport.Mux
	expected bool // must receive every multicast sent outside a change window
	tracked  bool // counts towards the group's rekey convergence

	mb           *member.Member
	consumerDone chan struct{}
	leaving      atomic.Bool

	seen      []uint8 // deliveries per group multicast number
	samples   []sample
	satCount  []int64 // per round
	lastEpoch uint64
	rejected  uint64 // frames rejected by finished members of this slot
}

// runner drives one workload against one daemon.
type runner struct {
	w      workload
	sched  schedule
	d      *daemon
	t0     time.Time
	groups []*groupState
	muxes  []*transport.Mux
	fails  failures
	spans  *spanLog // nil unless traced
	pacer  *pacer

	nextSend int // index into sched.Sends; the paced phases consume it in order

	phase        atomic.Int32
	satEnd       atomic.Int64
	lastDelivery atomic.Int64
	stopping     atomic.Bool
	killed       atomic.Int64 // sessions that ended without being asked to

	round atomic.Int32 // index of the round in progress

	mu        sync.Mutex // guards the sample slices below
	joins     []sample
	convs     []sample
	joinOpts  []int64
	waitReady []int64
	leaves    []int64
	sendData  []int64
	lag       []sample
}

func (r *runner) now() int64 { return int64(time.Since(r.t0)) }

func newRunner(w workload, sched schedule, traced bool, rounds int) *runner {
	r := &runner{w: w, sched: sched, t0: time.Now()}
	if traced {
		r.spans = newSpanLog(sched.Tag)
	}
	perGroup := make([]int, w.Groups)
	for _, e := range sched.Sends {
		perGroup[e.Group]++
	}
	for g := 0; g < w.Groups; g++ {
		gs := &groupState{
			idx:     g,
			id:      groupID(g),
			scratch: make([]byte, w.Payload),
			sent:    make([]mcRec, 0, perGroup[g]+1024),
		}
		for m := 0; m < w.Members; m++ {
			churner := m == w.Members-1
			s := &session{
				grp:      gs,
				idx:      m,
				user:     userID(m),
				expected: !(churner && w.churns()),
				tracked:  !churner,
				samples:  make([]sample, 0, perGroup[g]),
				satCount: make([]int64, rounds),
			}
			gs.members = append(gs.members, s)
		}
		gs.churner = gs.members[w.Members-1]
		gs.peer = w.Members - 1
		if w.churns() {
			gs.peer = w.Members - 2
		}
		gs.conv = newConvTracker(w.Members - 1) // everyone but the churner
		r.groups = append(r.groups, gs)
	}
	return r
}

// setUp spawns the daemon, derives the generator's keys while the daemon
// derives its own, dials the connections and joins every session. It
// returns the time from spawn to the last WaitReady.
func (r *runner) setUp(bin string, env environment) (time.Duration, error) {
	start := time.Now()
	keys := make(chan struct{})
	go func() {
		defer close(keys)
		for _, g := range r.groups {
			for _, s := range g.members {
				s.key = crypto.DeriveKey(s.user, g.id, password)
			}
		}
	}()
	d, err := startDaemon(bin, r.w, env, r.spans != nil)
	<-keys
	if err != nil {
		return 0, err
	}
	r.d = d
	conns := env.Conns
	for i := 0; i < conns; i++ {
		m, err := transport.DialMux(d.addr, transport.MuxConfig{})
		if err != nil {
			return 0, fmt.Errorf("dial connection %d: %w", i, err)
		}
		r.muxes = append(r.muxes, m)
	}

	// Join member by member across groups, joinBurst at a time, so the
	// groups fill evenly.
	work := make(chan *session)
	var wg sync.WaitGroup
	var firstErr atomic.Pointer[error]
	for i := 0; i < joinBurst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work {
				if err := r.join(s, false); err != nil {
					firstErr.CompareAndSwap(nil, &err)
				}
			}
		}()
	}
	n := 0
	for m := 0; m < r.w.Members; m++ {
		for _, g := range r.groups {
			s := g.members[m]
			s.mux = r.muxes[n%conns]
			n++
			work <- s
		}
	}
	close(work)
	wg.Wait()
	if e := firstErr.Load(); e != nil {
		return 0, *e
	}
	return time.Since(start), nil
}

// settle waits until set-up has really finished: every member of every
// group has reached the group's final epoch and has seen every other member
// join. The join notices are ack-gated one at a time per member, so after a
// large group's last WaitReady the daemon is still working through them;
// measuring before they drain would time the set-up, not the workload. It
// then primes each group's convergence tracker with the settled epoch.
func (r *runner) settle() error {
	deadline := time.Now().Add(60 * time.Second)
	wait := func(g *groupState, what string, ok func() bool) error {
		for !ok() {
			if time.Now().After(deadline) {
				return fmt.Errorf("group %s did not settle: %s", g.id, what)
			}
			time.Sleep(2 * time.Millisecond)
		}
		return nil
	}
	for _, g := range r.groups {
		var hi uint64
		err := wait(g, "epochs differ", func() bool {
			lo := g.members[0].mb.Epoch()
			hi = lo
			for _, s := range g.members[1:] {
				e := s.mb.Epoch()
				lo, hi = min(lo, e), max(hi, e)
			}
			return lo == hi
		})
		if err != nil {
			return err
		}
		g.conv.settle(hi)
		for _, s := range g.members {
			if err := wait(g, "views incomplete", func() bool { return len(s.mb.Members()) == len(g.members) }); err != nil {
				return err
			}
		}
	}
	return nil
}

// join opens a stream, joins and waits for the first group key, then starts
// the slot's consumer. Timed joins (every one after set-up) feed join_*.
func (r *runner) join(s *session, timed bool) error {
	g := s.grp
	t0 := r.now()
	c, err := s.mux.Open(g.id)
	if err != nil {
		return fmt.Errorf("%s/%s: open: %w", g.id, s.user, err)
	}
	t1 := r.now()
	mb, err := member.JoinOpts(c, s.user, g.id, s.key, member.Options{})
	if err != nil {
		c.Close()
		return fmt.Errorf("%s/%s: join: %w", g.id, s.user, err)
	}
	t2 := r.now()
	s.mb = mb
	s.leaving.Store(false)
	s.consumerDone = make(chan struct{})
	go r.consume(s, mb, s.consumerDone)
	if err := mb.WaitReady(joinTimeout); err != nil {
		return fmt.Errorf("%s/%s: ready: %w", g.id, s.user, err)
	}
	t3 := r.now()
	if timed {
		r.mu.Lock()
		r.joins = append(r.joins, sample{at: t0, lat: t3 - t0})
		r.joinOpts = append(r.joinOpts, t2-t1)
		r.waitReady = append(r.waitReady, t3-t2)
		r.mu.Unlock()
		if r.spans != nil {
			root := r.spans.add("join", 0, t0, t3)
			r.spans.add("transport.Mux.Open", root, t0, t1)
			r.spans.add("member.JoinOpts", root, t1, t2)
			r.spans.add("member.WaitReady", root, t2, t3)
		}
	}
	return nil
}

// consume drains one member's events until its session closes.
func (r *runner) consume(s *session, mb *member.Member, done chan struct{}) {
	defer close(done)
	for {
		ev, err := mb.Next()
		if err != nil {
			return
		}
		switch ev.Kind {
		case member.EventData:
			r.onData(s, ev)
		case member.EventRekey:
			now := r.now()
			if ev.Epoch < s.lastEpoch {
				r.fails.add("%s/%s: epoch regressed %d -> %d", s.grp.id, s.user, s.lastEpoch, ev.Epoch)
			}
			s.lastEpoch = ev.Epoch
			if s.tracked {
				if s.grp.conv.observe(s.idx, ev.Epoch, now) && r.spans != nil {
					r.spans.mark("rekey.recv", r.spans.rekeyRoot(s.grp.idx), now)
				}
			}
		case member.EventClosed:
			if !s.leaving.Load() && !r.stopping.Load() {
				r.killed.Add(1)
				r.fails.add("%s/%s: session ended: %v", s.grp.id, s.user, ev.Err)
			}
		}
	}
}

func (r *runner) onData(s *session, ev member.Event) {
	now := r.now()
	g := s.grp
	p := ev.Data
	if len(p) != r.w.Payload || crc32.ChecksumIEEE(p[:len(p)-4])^r.sched.Tag != binary.BigEndian.Uint32(p[len(p)-4:]) {
		r.fails.add("%s/%s: payload checksum mismatch (%d bytes)", g.id, s.user, len(p))
		return
	}
	if int(binary.BigEndian.Uint16(p[offGroup:])) != g.idx {
		r.fails.add("%s/%s: payload of group %d delivered", g.id, s.user, binary.BigEndian.Uint16(p[offGroup:]))
		return
	}
	sender := int(binary.BigEndian.Uint16(p[offSender:]))
	if sender >= len(g.members) || ev.From != g.members[sender].user {
		r.fails.add("%s/%s: payload sender %d arrived from %q", g.id, s.user, sender, ev.From)
		return
	}
	seq := int(binary.BigEndian.Uint32(p[offSeq:]))
	for len(s.seen) <= seq {
		s.seen = append(s.seen, 0)
	}
	if s.seen[seq]++; s.seen[seq] > 1 {
		r.fails.add("%s/%s: multicast %d delivered twice", g.id, s.user, seq)
		return
	}
	r.lastDelivery.Store(now)
	intended := int64(binary.BigEndian.Uint64(p[offIntended:]))
	switch p[offPhase] {
	case phasePaced:
		if s.expected {
			sent := int64(binary.BigEndian.Uint64(p[offSent:]))
			s.samples = append(s.samples, sample{at: intended, lat: now - intended, fromSend: now - sent})
		}
		if r.spans != nil && r.spans.sampled(g.idx, seq) {
			r.spans.deliveryRecv(g.idx, seq, now)
		}
	case phaseSat:
		if now <= r.satEnd.Load() {
			s.satCount[r.round.Load()]++
			if s.idx == g.peer && r.phase.Load() == phaseSat {
				r.send(g, (seq+1)%r.satSenders(g), now, phaseSat)
			}
		}
	}
}

// satSenders is how many of a group's senders take turns in the saturated
// phase: the configured senders below the designated peer.
func (r *runner) satSenders(g *groupState) int {
	if r.w.Senders < g.peer {
		return r.w.Senders
	}
	return g.peer
}

// send multicasts one payload from a group's member. due is the intended
// send time; latency is counted from it whenever the send really happens.
func (r *runner) send(g *groupState, sender int, due int64, phase uint8) {
	g.mu.Lock()
	defer g.mu.Unlock()
	seq := len(g.sent)
	p := g.scratch
	off := seq % fillerSlack
	copy(p, r.sched.Filler[off:off+len(p)])
	begun := r.now()
	binary.BigEndian.PutUint64(p[offIntended:], uint64(due))
	binary.BigEndian.PutUint64(p[offSent:], uint64(begun))
	binary.BigEndian.PutUint32(p[offSeq:], uint32(seq))
	binary.BigEndian.PutUint16(p[offGroup:], uint16(g.idx))
	binary.BigEndian.PutUint16(p[offSender:], uint16(sender))
	p[offPhase] = phase
	binary.BigEndian.PutUint32(p[len(p)-4:], crc32.ChecksumIEEE(p[:len(p)-4])^r.sched.Tag)

	traced := phase == phasePaced && r.spans != nil && r.spans.sampled(g.idx, seq)
	if traced {
		r.spans.deliveryBegin(g.idx, seq, due)
	}
	w1 := g.win.Load()
	t1 := r.now()
	err := g.members[sender].mb.SendData(p)
	t2 := r.now()
	w2 := g.win.Load()
	g.sent = append(g.sent, mcRec{
		intended: due, sender: uint16(sender), phase: phase,
		inWindow: w1 != w2 || w1&1 == 1,
	})
	if err != nil {
		r.fails.add("%s/%s: send: %v", g.id, g.members[sender].user, err)
	}
	if phase == phasePaced {
		// Only the scheduler goroutine sends in the paced phase.
		r.lag = append(r.lag, sample{at: due, lat: begun - due})
		r.sendData = append(r.sendData, t2-t1)
		if traced {
			r.spans.deliverySent(g.idx, seq, t1, t2)
		}
	}
}

// change brackets one membership change of a group: it opens the group's
// change window and convergence clock, runs op, waits until every tracked
// member has rekeyed, and records the convergence time.
func (r *runner) change(g *groupState, kind string, op func() error) error {
	g.win.Add(1)
	defer g.win.Add(1)
	start := r.now()
	if r.spans != nil {
		r.spans.openRekey(g.idx, start)
	}
	done := g.conv.begin(start)
	if err := op(); err != nil {
		r.fails.add("%s: %s: %v", g.id, kind, err)
		return err
	}
	select {
	case d := <-done:
		r.mu.Lock()
		r.convs = append(r.convs, sample{at: start, lat: d})
		r.mu.Unlock()
		if r.spans != nil {
			r.spans.closeRekey(g.idx, start+d)
		}
		return nil
	case <-time.After(convTimeout):
		err := fmt.Errorf("rekey after %s did not converge within %v", kind, convTimeout)
		r.fails.add("%s: %v", g.id, err)
		return err
	}
}

func (r *runner) leave(g *groupState) error {
	return r.change(g, "leave", func() error {
		s := g.churner
		s.leaving.Store(true)
		t0 := r.now()
		err := s.mb.Leave()
		t1 := r.now()
		<-s.consumerDone
		s.rejected += s.mb.Rejected()
		r.mu.Lock()
		r.leaves = append(r.leaves, t1-t0)
		r.mu.Unlock()
		if r.spans != nil {
			r.spans.add("member.Leave", r.spans.rekeyRoot(g.idx), t0, t1)
		}
		return err
	})
}

func (r *runner) rejoin(g *groupState) error {
	return r.change(g, "join", func() error { return r.join(g.churner, true) })
}

// sleepUntil sleeps until the run clock reads at, or returns false at once
// when stop closes first.
func (r *runner) sleepUntil(at int64, stop <-chan struct{}) bool {
	d := time.Duration(at - r.now())
	if d <= 0 {
		select {
		case <-stop:
			return false
		default:
			return true
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-stop:
		return false
	case <-t.C:
		return true
	}
}

// churnPeriodic cycles one group's churner: leave at the start of each
// period, rejoin half a period later. Only one change is ever in flight. A
// stop request is honoured between cycles, so the churner always ends the
// phase joined; a stop that lands mid-cycle cuts the half-period wait short.
func (r *runner) churnPeriodic(g *groupState, first int64, stop <-chan struct{}) {
	period := int64(r.w.ChurnPeriod)
	for next := first; r.sleepUntil(next, stop); next += period {
		if r.leave(g) != nil {
			return
		}
		r.sleepUntil(next+period/2, stop)
		if r.rejoin(g) != nil {
			return
		}
	}
}

// churnSerial runs leave -> converge -> pause -> rejoin -> converge -> pause
// over the groups in turn, in an order the seed decides, until stop.
func (r *runner) churnSerial(pause time.Duration, stop <-chan struct{}) {
	order := rand.New(rand.NewSource(int64(r.sched.Tag))).Perm(len(r.groups))
	for i := 0; ; i++ {
		g := r.groups[order[i%len(order)]]
		if !r.sleepUntil(r.now()+int64(pause), stop) {
			return
		}
		if r.leave(g) != nil {
			return
		}
		time.Sleep(pause)
		if r.rejoin(g) != nil {
			return
		}
	}
}

// usage is the CPU and memory of daemon and generator at one instant.
type usage struct {
	at     int64
	daemon procStat
	self   procStat
}

func (r *runner) usage() usage {
	u := usage{at: r.now()}
	var err error
	if u.daemon, err = readProc(r.d.pid()); err != nil {
		r.fails.add("read daemon /proc: %v", err)
	}
	u.self, _ = readProc(selfPID)
	return u
}

// round is the record of one round: where its phases began and ended on
// the run clock, and what the processes had used at the paced phase's ends.
type round struct {
	before, after    usage // around the paced phase
	changes          int   // membership changes begun in the paced phase
	satStart, satEnd int64
	end              int64 // of the round's last phase
}

// paced runs one round's open-loop phase: the sends the seeded schedule
// puts in [from, from+dur) go out on time whatever the daemon does, beside
// the workload's churn if it has any.
func (r *runner) paced(rd *round, from, dur time.Duration) {
	stop := make(chan struct{})
	var churn sync.WaitGroup
	r.mu.Lock()
	changes := len(r.convs)
	r.mu.Unlock()
	rd.before = r.usage()
	start := rd.before.at
	r.phase.Store(phasePaced)
	switch {
	case r.w.ChurnPeriod > 0:
		for _, g := range r.groups {
			churn.Add(1)
			go func(g *groupState) {
				defer churn.Done()
				r.churnPeriodic(g, start+int64(r.sched.Stagger[g.idx]), stop)
			}(g)
		}
	case r.w.ChurnPause > 0:
		churn.Add(1)
		go func() {
			defer churn.Done()
			r.churnSerial(r.w.ChurnPause, stop)
		}()
	}
	last := start
	for ; r.nextSend < len(r.sched.Sends) && r.sched.Sends[r.nextSend].At < from+dur; r.nextSend++ {
		e := r.sched.Sends[r.nextSend]
		due := start + int64(e.At-from)
		lead := min(max(time.Duration(due-last)/8, minPacerLead), maxPacerLead)
		last = due
		if err := r.pacer.sleep(time.Duration(due-r.now()) - lead); err != nil {
			r.fails.add("pacer: %v", err)
			break
		}
		for r.now() < due {
			runtime.Gosched() // the consumers share this P
		}
		r.send(r.groups[e.Group], int(e.Sender), due, phasePaced)
	}
	if d := start + int64(dur) - r.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	rd.after = r.usage()
	close(stop)
	churn.Wait()
	r.mu.Lock()
	rd.changes = len(r.convs) - changes
	r.mu.Unlock()
	r.phase.Store(phaseIdle)
	r.drain(drainQuiet)
}

// saturate runs one round's closed-loop phase: every group keeps exactly
// one multicast outstanding; the designated peer's receipt releases the next.
func (r *runner) saturate(rd *round, dur time.Duration) {
	rd.satStart = r.now()
	rd.satEnd = rd.satStart + int64(dur)
	r.satEnd.Store(rd.satEnd)
	r.phase.Store(phaseSat)
	for _, g := range r.groups {
		r.send(g, 0, rd.satStart, phaseSat)
	}
	time.Sleep(dur)
	r.phase.Store(phaseIdle)
	r.drain(drainQuiet)
}

// membership runs serial leave/rejoin cycles on an otherwise quiet daemon.
func (r *runner) membership(dur time.Duration) {
	stop := make(chan struct{})
	r.phase.Store(phaseMember)
	time.AfterFunc(dur, func() { close(stop) })
	r.churnSerial(memberPause, stop)
	<-stop
	r.phase.Store(phaseIdle)
}

// drain waits for deliveries still in flight: until none has arrived for
// quiet. A stall of either process longer than quiet ends it early, which
// between phases only blurs their border.
func (r *runner) drain(quiet time.Duration) {
	deadline := time.Now().Add(drainCap)
	for time.Now().Before(deadline) {
		time.Sleep(quiet / 4)
		if r.now()-r.lastDelivery.Load() > int64(quiet) {
			return
		}
	}
}

// tearDown stops the daemon first, so that it does not rekey for every
// closing session, then closes the connections and waits for every
// consumer. It may be called twice.
func (r *runner) tearDown() {
	r.stopping.Store(true)
	if r.d != nil {
		r.d.stop()
	}
	for _, m := range r.muxes {
		m.Close()
	}
	for _, g := range r.groups {
		for _, s := range g.members {
			if s.consumerDone != nil {
				<-s.consumerDone
			}
		}
	}
}

// verify checks delivery after tear-down, when no goroutine touches the
// receive state any more: every multicast sealed outside a change window
// reached every expected receiver exactly once. It returns how many
// deliveries were required, and how many multicasts fell in a window and
// how many of their optional deliveries did not happen.
func (r *runner) verify() (required, inWindow, windowDrops int64) {
	for _, g := range r.groups {
		for seq, rec := range g.sent {
			if rec.inWindow {
				inWindow++
			}
			for _, s := range g.members {
				if !s.expected || s.idx == int(rec.sender) {
					continue
				}
				got := seq < len(s.seen) && s.seen[seq] == 1
				switch {
				case rec.inWindow && !got:
					windowDrops++
				case !rec.inWindow:
					required++
					if !got {
						r.fails.add("%s/%s: multicast %d (phase %d) not delivered", g.id, s.user, seq, rec.phase)
					}
				}
			}
		}
	}
	return required, inWindow, windowDrops
}

func (r *runner) rejectedTotal() uint64 {
	var n uint64
	for _, g := range r.groups {
		for _, s := range g.members {
			n += s.rejected
			if s.mb != nil && !(s == g.churner && s.leaving.Load()) {
				n += s.mb.Rejected()
			}
		}
	}
	return n
}

// plan is the shape of one pass: so many rounds, each running the phases
// back to back for these lengths; a zero phase is skipped. Cutting the
// window into rounds lets every metric be the median of per-round values
// (the issue's slice-median, applied to every figure), so that one
// scheduler hiccup cannot set it, while a stall that comes back in most
// rounds does.
type plan struct {
	rounds           int
	paced, sat, memb time.Duration // per round
}

const roundSeconds = 2

// plan cuts the measured seconds into rounds of roundSeconds and splits
// each between the workload's phases.
func (w workload) plan(seconds float64) plan {
	rounds := max(1, int(seconds/roundSeconds+0.5))
	d := func(share float64) time.Duration {
		return time.Duration(share * seconds / float64(rounds) * float64(time.Second))
	}
	return plan{rounds, d(w.PacedShare), d(w.SatShare), d(w.MemberShare)}
}

// pass is what one set-up-and-measure pass over a workload yields.
type pass struct {
	plan        plan
	setup       time.Duration
	settle      time.Duration // after set-up, until the join backlog had drained
	rounds      []round
	delivery    []sample // paced phases, every (multicast, expected receiver) pair
	satCounts   []int64  // deliveries inside each round's saturated window
	joins       []sample
	convs       []sample
	joinOpts    []int64
	waitReady   []int64
	leaves      []int64
	sendData    []int64
	lag         []sample
	sessions    int64
	sends       int64
	required    int64
	inWindow    int64
	windowDrops int64
	rejected    uint64
	killed      int64
	failed      int64
	failSamples []string
	scrape0     map[string]float64
	scrape1     map[string]float64
	spans       *spanLog
}

// attempted counts the operations the pass tried: session set-ups, sends,
// required deliveries, timed joins and leaves.
func (p *pass) attempted() int64 {
	return p.sessions + p.sends + p.required + int64(len(p.joins)+len(p.leaves))
}

// runPass sets one daemon up, runs the rounds, tears down and verifies. A
// traced pass has the daemon's metrics endpoint on, the generator's
// instruments enabled and spans recorded.
func runPass(bin string, w workload, seed int64, pl plan, traced bool, env environment) (*pass, error) {
	if traced {
		metrics.Enable()
		defer metrics.Disable()
	}
	r := newRunner(w, buildSchedule(w, seed, pl.rounds, pl.paced), traced, pl.rounds)
	defer r.tearDown()
	var err error
	if r.pacer, err = newPacer(); err != nil {
		return nil, err
	}
	defer r.pacer.close()
	p := &pass{plan: pl, spans: r.spans, sessions: int64(w.sessions()), rounds: make([]round, pl.rounds)}
	if p.setup, err = r.setUp(bin, env); err != nil {
		return nil, err
	}
	settleStart := time.Now()
	if err := r.settle(); err != nil {
		return nil, err
	}
	p.settle = time.Since(settleStart)
	if traced {
		if p.scrape0, err = r.d.scrape(); err != nil {
			return nil, err
		}
	}
	for k := range p.rounds {
		rd := &p.rounds[k]
		r.round.Store(int32(k))
		r.paced(rd, time.Duration(k)*pl.paced, pl.paced)
		if pl.sat > 0 {
			r.saturate(rd, pl.sat)
		}
		if pl.memb > 0 {
			r.membership(pl.memb)
		}
		rd.end = r.now()
	}
	r.drain(finalQuiet)
	if traced {
		if p.scrape1, err = r.d.scrape(); err != nil {
			return nil, err
		}
	}
	select {
	case <-r.d.exited:
		return nil, errors.New("enclaved died during the run: " + r.d.stderrTail())
	default:
	}
	r.tearDown()

	p.required, p.inWindow, p.windowDrops = r.verify()
	p.satCounts = make([]int64, pl.rounds)
	for _, g := range r.groups {
		p.sends += int64(len(g.sent))
		for _, s := range g.members {
			p.delivery = append(p.delivery, s.samples...)
			for k, n := range s.satCount {
				p.satCounts[k] += n
			}
		}
	}
	p.joins, p.convs, p.joinOpts, p.waitReady, p.leaves = r.joins, r.convs, r.joinOpts, r.waitReady, r.leaves
	p.sendData, p.lag = r.sendData, r.lag
	p.rejected = r.rejectedTotal()
	p.killed = r.killed.Load()
	p.failed = r.fails.n.Load()
	p.failSamples = r.fails.samples
	return p, nil
}
