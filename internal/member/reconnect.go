package member

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"enclaves/internal/core"
	"enclaves/internal/crypto"
	"enclaves/internal/queue"
	"enclaves/internal/transport"
)

// This file implements automatic re-join: the library form of the
// failover pattern (examples/failover) and the paper's future-work
// direction of surviving leader loss. A Session owns a sequence of Member
// sessions: whenever the current one dies involuntarily, it re-runs the
// authenticated join against the configured endpoints (primary first, then
// standbys) with exponential backoff. Because the protocol authenticates
// from long-term keys alone and generates all session state fresh, rejoin
// needs no recovery handshake beyond the verified three-message join.

// Endpoint describes one leader the session may (re)join.
type Endpoint struct {
	// Leader is the leader's identity at this endpoint.
	Leader string
	// LongTerm is the key shared with THIS leader (keys are per leader:
	// crypto.DeriveKey binds the leader name).
	LongTerm crypto.Key
	// Dial opens a fresh connection to the endpoint.
	Dial func() (transport.Conn, error)
}

// SessionConfig configures an auto-rejoining session.
type SessionConfig struct {
	// User is this member's identity.
	User string
	// Endpoints are tried in order on every (re)join round.
	Endpoints []Endpoint
	// Backoff is the base delay before the first rejoin attempt; it doubles
	// per failed round, capped at 32x, and every wait is jittered uniformly
	// over [backoff/2, backoff) from a PRNG seeded by the user name — after
	// a leader failure, thousands of members desynchronize their reconnect
	// attempts deterministically instead of stampeding the promoted standby
	// in lockstep. Zero means 50ms. Rounds go on until Close.
	Backoff time.Duration
	// ReadyTimeout bounds each attach attempt, up to the first group key;
	// zero means 10s.
	ReadyTimeout time.Duration
	// SilenceTimeout arms each underlying session's leader-silence
	// watchdog (Options.SilenceTimeout): a wedged or partitioned leader is
	// detected without waiting for a transport error, and the session
	// fails over to the next endpoint automatically. Zero disables it.
	SilenceTimeout time.Duration
}

// ErrDown is returned by Session.SendData while no leader is joined.
var ErrDown = errors.New("member: session down, rejoining")

// Session is an auto-rejoining group membership. Its members queue their
// events straight into one unified stream, where an EventJoined for the
// member itself marks each (re)join, after the events of the attach that
// brought it up. A lost member arms the timer that runs the next rejoin
// round, so no goroutine waits on the Session's behalf.
type Session struct {
	cfg SessionConfig
	rng *jitterRNG // under mu

	mu      sync.Mutex
	current *Member // nil while down
	// attaching is the connection of the attach attempt in flight, if any, so
	// Close can fail an exchange the endpoint never answers.
	attaching transport.Conn
	closed    bool
	retry     *time.Timer // armed rejoin timer; nil once a round installs a member

	events  *queue.Queue[Event]
	closing chan struct{} // closed by Close; fails an attempt waiting for its key
	done    chan struct{} // closed once the final EventClosed is queued
}

// NewSession joins through the first reachable endpoint. It fails if that
// first round reaches no endpoint.
func NewSession(cfg SessionConfig) (*Session, error) {
	if cfg.User == "" {
		return nil, errors.New("member: session user must be non-empty")
	}
	if len(cfg.Endpoints) == 0 {
		return nil, errors.New("member: session needs at least one endpoint")
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 50 * time.Millisecond
	}
	if cfg.ReadyTimeout <= 0 {
		cfg.ReadyTimeout = 10 * time.Second
	}
	s := &Session{
		cfg:     cfg,
		rng:     newJitterRNG(cfg.User),
		events:  queue.New[Event](),
		closing: make(chan struct{}),
		done:    make(chan struct{}),
	}
	if _, err := s.attachOnce(nil); err != nil {
		return nil, err
	}
	return s, nil
}

// attachOnce tries every endpoint once, in order, and installs the first
// session that comes up as s.current. A join is a resume with no prior
// state: where prior names the endpoint's leader (the promoted standby
// assumes the primary's name — the members' long-term keys bind it — so
// only its address differs) the resumption sub-protocol goes first, and a
// refusal falls back to the password join on the same endpoint. resumed
// reports which route attached. ErrLeft means Close ended the attempt.
func (s *Session) attachOnce(prior *core.SessionState) (resumed bool, err error) {
	err = errors.New("no endpoints")
	for _, ep := range s.cfg.Endpoints {
		if prior != nil && prior.Leader == ep.Leader {
			mResumeAttempts.Inc()
			if err = s.attachTo(ep, prior); err == nil {
				return true, nil
			}
			mResumeFallback.Inc()
		}
		if err = s.attachTo(ep, nil); err == nil {
			return false, nil
		}
		if errors.Is(err, ErrLeft) {
			return false, err
		}
	}
	return false, fmt.Errorf("member: all endpoints failed: %w", err)
}

// attachTo runs one attach attempt against one endpoint: dial, resume from
// prior (or join when nil), wait for the group key, install. The whole
// attempt is bounded by ReadyTimeout — with no SilenceTimeout the handshake
// itself has no deadline, and an endpoint that accepts and never answers
// must not wedge the session — and Close can end it throughout.
func (s *Session) attachTo(ep Endpoint, prior *core.SessionState) error {
	conn, err := ep.Dial()
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed { // Close found nothing in flight to close
		s.mu.Unlock()
		conn.Close()
		return ErrLeft
	}
	s.attaching = conn
	s.mu.Unlock()
	deadline := time.Now().Add(s.cfg.ReadyTimeout)
	bound := time.AfterFunc(s.cfg.ReadyTimeout, func() { conn.Close() })
	defer bound.Stop()

	var m *Member
	opts := Options{SilenceTimeout: s.cfg.SilenceTimeout, session: s}
	if prior != nil {
		m, err = Resume(conn, *prior, ep.LongTerm, opts)
	} else {
		m, err = JoinOpts(conn, s.cfg.User, ep.Leader, ep.LongTerm, opts)
	}
	if err == nil {
		err = m.waitReady(time.Until(deadline), s.closing)
	}

	// Installing the member and forgetting the connection are one step under
	// s.mu, so Close finds either the attempt's connection or the member it
	// became. A member that ended before this step told no one (lost ignores
	// it), so it fails the attempt.
	s.mu.Lock()
	s.attaching = nil
	switch {
	case s.closed:
		err = ErrLeft
	case err == nil && m.ended.Load():
		err = transport.ErrClosed
	case err == nil:
		s.current, s.retry = m, nil
		s.events.Push(Event{Kind: EventJoined, Name: s.cfg.User})
	}
	s.mu.Unlock()
	switch {
	case err == nil:
		return nil
	case m != nil:
		m.Leave()
	default:
		conn.Close()
	}
	return err
}

// lost is a member's close-out reported to s: an installed member lost
// involuntarily arms the first rejoin round. One lost to leader silence
// (failover) hands its state to the rounds as prior, so they try the
// resumption sub-protocol before the full join; after an ordinary connection
// loss a live primary has no resumable entry and would refuse anyway.
func (s *Session) lost(m *Member, cause error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.current != m {
		return
	}
	s.current = nil
	if s.closed {
		return
	}
	var prior *core.SessionState
	if errors.Is(cause, ErrLeaderSilent) {
		if st, ok := m.ResumeState(); ok {
			prior = &st
		}
	}
	s.retryLocked(prior, s.cfg.Backoff)
}

// retryLocked arms the jittered wait before the next rejoin round; each
// failed round doubles it, up to 32 times Backoff. Caller holds s.mu.
func (s *Session) retryLocked(prior *core.SessionState, backoff time.Duration) {
	next := min(2*backoff, 32*s.cfg.Backoff)
	s.retry = time.AfterFunc(s.rng.jittered(backoff), func() { s.round(prior, next) })
}

// round runs one rejoin round on the retry timer's goroutine. A failed round
// arms the next; one that Close overtook ends the session for Close.
func (s *Session) round(prior *core.SessionState, backoff time.Duration) {
	resumed, err := s.attachOnce(prior)
	if !resumed && !errors.Is(err, ErrLeft) {
		mRejoins.Inc() // the round reached the password join
	}
	if err == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.end()
		return
	}
	s.retryLocked(prior, backoff)
}

// end queues the final EventClosed, behind every event of every member.
func (s *Session) end() {
	s.events.Push(Event{Kind: EventClosed})
	s.events.Close()
	close(s.done)
}

// jitterRNG is a tiny deterministic PRNG (splitmix64) seeded from the
// member's name: distinct members draw distinct jitter streams, one member's
// schedule reproduces run to run, and neither math/rand (banned in protocol
// packages) nor the clock is involved.
type jitterRNG uint64

func newJitterRNG(user string) *jitterRNG {
	// FNV-1a spreads the name over the seed space.
	h := uint64(14695981039346656037)
	for i := 0; i < len(user); i++ {
		h ^= uint64(user[i])
		h *= 1099511628211
	}
	r := jitterRNG(h)
	return &r
}

func (r *jitterRNG) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4b9e9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// jittered spreads a delay uniformly over [d/2, d).
func (r *jitterRNG) jittered(d time.Duration) time.Duration {
	half := uint64(d) / 2
	if half == 0 {
		return d
	}
	return time.Duration(half + r.next()%half)
}

// Next blocks for the next event of the unified stream.
func (s *Session) Next() (Event, error) {
	ev, err := s.events.Pop()
	if err != nil {
		return Event{Kind: EventClosed}, ErrLeft
	}
	return ev, nil
}

// TryNext returns the next event without blocking.
func (s *Session) TryNext() (Event, bool) {
	return s.events.TryPop()
}

// SendData multicasts through the current session; while down it returns
// ErrDown so the application can buffer or drop.
func (s *Session) SendData(data []byte) error {
	m := s.cur()
	if m == nil {
		return ErrDown
	}
	return m.SendData(data)
}

// Members returns the current view, or nil while down.
func (s *Session) Members() []string {
	m := s.cur()
	if m == nil {
		return nil
	}
	return m.Members()
}

// Epoch returns the current group-key epoch, or zero while down.
func (s *Session) Epoch() uint64 {
	m := s.cur()
	if m == nil {
		return 0
	}
	return m.Epoch()
}

// Up reports whether a leader is currently joined.
func (s *Session) Up() bool { return s.cur() != nil }

// cur returns the current member, nil while down.
func (s *Session) cur() *Member {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.current
}

// Close leaves the group (if joined) and stops rejoining: it stops a pending
// rejoin wait and fails an attach attempt in flight. It returns once the
// final EventClosed is queued.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrLeft
	}
	s.closed = true
	close(s.closing)
	m, attaching := s.current, s.attaching
	// A round whose timer has fired is in flight, and it ends the session.
	inFlight := s.retry != nil && !s.retry.Stop()
	s.mu.Unlock()

	var err error
	if m != nil {
		err = m.Leave()
	}
	if attaching != nil {
		attaching.Close()
	}
	if !inFlight {
		s.end()
	}
	<-s.done
	return err
}
