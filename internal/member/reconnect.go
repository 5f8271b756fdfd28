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
	// in lockstep. Zero means 50ms.
	Backoff time.Duration
	// MaxRounds bounds rejoin rounds (a round tries every endpoint once);
	// zero means unlimited.
	MaxRounds int
	// ReadyTimeout bounds the wait for the first group key after each
	// join; zero means 10s.
	ReadyTimeout time.Duration
	// SilenceTimeout arms each underlying session's leader-silence
	// watchdog (Options.SilenceTimeout): a wedged or partitioned leader is
	// detected without waiting for a transport error, and the session
	// fails over to the next endpoint automatically. Zero disables it.
	SilenceTimeout time.Duration
}

// ErrDown is returned by Session.SendData while no leader is joined.
var ErrDown = errors.New("member: session down, rejoining")

// ErrGaveUp is carried by the final EventClosed after MaxRounds failed
// rejoin rounds.
var ErrGaveUp = errors.New("member: gave up rejoining")

// Session is an auto-rejoining group membership. Events from successive
// underlying sessions are delivered on one unified stream; an EventJoined
// for the member itself marks each successful (re)join.
type Session struct {
	cfg SessionConfig

	mu      sync.Mutex
	current *Member // nil while down
	// attaching is the connection of the attach attempt in flight, if any, so
	// Close can fail an exchange the endpoint never answers.
	attaching transport.Conn
	closed    bool

	events  *queue.Queue[Event]
	done    chan struct{}
	closing chan struct{} // closed by Close; cancels backoff waits
}

// NewSession joins through the first reachable endpoint and starts the
// supervision loop. It fails if the initial round reaches no endpoint.
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
		events:  queue.New[Event](),
		done:    make(chan struct{}),
		closing: make(chan struct{}),
	}
	m, _, err := s.attachOnce(nil)
	if err != nil {
		return nil, err
	}
	go s.supervise(m)
	return s, nil
}

// attachOnce tries every endpoint once, in order, and installs the first
// session that comes up as s.current. A join is a resume with no prior
// state: where prior names the endpoint's leader (the promoted standby
// assumes the primary's name — the members' long-term keys bind it — so
// only its address differs) the resumption sub-protocol goes first, and a
// refusal falls back to the password join on the same endpoint. resumed
// reports which route attached. ErrLeft means Close ended the attempt.
func (s *Session) attachOnce(prior *core.SessionState) (m *Member, resumed bool, err error) {
	err = errors.New("no endpoints")
	for _, ep := range s.cfg.Endpoints {
		if prior != nil && prior.Leader == ep.Leader {
			mResumeAttempts.Inc()
			if m, err = s.attachTo(ep, prior); err == nil {
				return m, true, nil
			}
			mResumeFallback.Inc()
		}
		if m, err = s.attachTo(ep, nil); err == nil {
			return m, false, nil
		}
		if errors.Is(err, ErrLeft) {
			return nil, false, err
		}
	}
	return nil, false, fmt.Errorf("member: all endpoints failed: %w", err)
}

// attachTo runs one attach attempt against one endpoint: dial, resume from
// prior (or join when nil), wait for the group key. The whole attempt is
// bounded by ReadyTimeout — with no SilenceTimeout the handshake itself has
// no deadline, and an endpoint that accepts and never answers must not wedge
// the session — and its connection is visible to Close throughout.
func (s *Session) attachTo(ep Endpoint, prior *core.SessionState) (*Member, error) {
	conn, err := ep.Dial()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed { // Close found nothing in flight to close
		s.mu.Unlock()
		conn.Close()
		return nil, ErrLeft
	}
	s.attaching = conn
	s.mu.Unlock()
	bound := time.AfterFunc(s.cfg.ReadyTimeout, func() { conn.Close() })
	defer bound.Stop()

	var m *Member
	opts := Options{SilenceTimeout: s.cfg.SilenceTimeout}
	if prior != nil {
		m, err = Resume(conn, *prior, ep.LongTerm, opts)
	} else {
		m, err = JoinOpts(conn, s.cfg.User, ep.Leader, ep.LongTerm, opts)
	}
	if err == nil {
		err = m.WaitReady(s.cfg.ReadyTimeout)
	}

	// Installing the member and forgetting the connection are one step under
	// s.mu, so Close finds either the attempt's connection or the member it
	// became — never neither (which would leave pump blocked on a session
	// nobody closes).
	s.mu.Lock()
	s.attaching = nil
	if err == nil && s.closed {
		err = ErrLeft
	}
	if err == nil {
		s.current = m
	}
	s.mu.Unlock()
	switch {
	case err == nil:
		return m, nil
	case m != nil:
		m.Leave()
	default:
		conn.Close()
	}
	return nil, err
}

// supervise pumps the current member's events and re-attaches on
// involuntary loss, one supervised loop with jittered exponential backoff. A
// session lost to leader silence (failover) carries its state into the
// attempts as prior, so they try the resumption sub-protocol — re-attaching
// to the promoted standby under the existing session key — before the full
// join; an ordinary connection loss to a healthy leader re-joins directly (a
// live primary has no resumable entry and would refuse anyway).
func (s *Session) supervise(m *Member) {
	final := Event{Kind: EventClosed} // Err stays nil unless the session gives up
	defer func() {
		s.events.Push(final)
		s.events.Close()
		close(s.done)
	}()
	rng := newJitterRNG(s.cfg.User)
	var (
		prior   *core.SessionState
		backoff time.Duration
		round   int
	)
	for {
		if m != nil {
			s.events.Push(Event{Kind: EventJoined, Name: s.cfg.User})
			failure := s.pump(m)
			s.mu.Lock()
			s.current = nil
			s.mu.Unlock()
			if failure == nil {
				return // voluntary close
			}
			prior = nil
			if errors.Is(failure, ErrLeaderSilent) {
				if st, ok := m.ResumeState(); ok {
					prior = &st
				}
			}
			m, backoff, round = nil, s.cfg.Backoff, 0
		}
		if round++; s.cfg.MaxRounds > 0 && round > s.cfg.MaxRounds {
			final.Err = ErrGaveUp
			return
		}
		// The wait is cancellable: Close must not block behind a sleep that
		// can reach 32x the base backoff.
		wait := time.NewTimer(rng.jittered(backoff))
		select {
		case <-wait.C:
		case <-s.closing:
			wait.Stop()
			return
		}
		if backoff < 32*s.cfg.Backoff {
			backoff *= 2
		}
		next, resumed, err := s.attachOnce(prior)
		if errors.Is(err, ErrLeft) {
			return // Close ended the attempt
		}
		if !resumed {
			mRejoins.Inc() // the round reached the password join
		}
		m = next
	}
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

// pump forwards m's events until it closes; it returns the closure error
// (nil for a voluntary leave).
func (s *Session) pump(m *Member) error {
	for {
		ev, err := m.Next()
		if err != nil {
			return nil // drained after voluntary leave
		}
		if ev.Kind == EventClosed {
			return ev.Err
		}
		s.events.Push(ev)
	}
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
	s.mu.Lock()
	m := s.current
	s.mu.Unlock()
	if m == nil {
		return ErrDown
	}
	return m.SendData(data)
}

// Members returns the current view, or nil while down.
func (s *Session) Members() []string {
	s.mu.Lock()
	m := s.current
	s.mu.Unlock()
	if m == nil {
		return nil
	}
	return m.Members()
}

// Epoch returns the current group-key epoch, or zero while down.
func (s *Session) Epoch() uint64 {
	s.mu.Lock()
	m := s.current
	s.mu.Unlock()
	if m == nil {
		return 0
	}
	return m.Epoch()
}

// Up reports whether a leader is currently joined.
func (s *Session) Up() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.current != nil
}

// Close leaves the group (if joined) and stops the supervision loop,
// interrupting any in-progress rejoin backoff or attach attempt.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrLeft
	}
	s.closed = true
	close(s.closing)
	m, attaching := s.current, s.attaching
	s.mu.Unlock()

	var err error
	if m != nil {
		err = m.Leave()
	}
	if attaching != nil {
		attaching.Close()
	}
	<-s.done
	return err
}
