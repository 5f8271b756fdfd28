package replica

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"enclaves/internal/crypto"
	"enclaves/internal/transport"
	"enclaves/internal/wire"
)

// StandbyConfig configures the standby-side replication endpoint.
type StandbyConfig struct {
	// Standby is this node's name (becomes the promoted leader's name from
	// the members' point of view it does NOT — members resume under the
	// PRIMARY's identity, which the standby assumes at promotion).
	Standby string
	// Primary is the primary leader's name.
	Primary string
	// Key is the pre-shared replication key K_r.
	Key crypto.Key
	// Dial opens a connection to the primary's listener.
	Dial func() (transport.Conn, error)
	// Silence is how long the replication stream may be quiet before the
	// primary is declared dead. The sender's ping deltas keep a healthy
	// stream well under it.
	Silence time.Duration
	// Logf, if non-nil, receives diagnostics.
	Logf func(format string, args ...any)
}

// Standby mirrors the primary's group state over the sealed replication
// channel until the primary goes silent, then exposes the replica for
// promotion. Dead detection is time-since-last-authenticated-frame: chain
// breaks and connection failures trigger re-subscription (fresh snapshot),
// not failover — only sustained silence does.
type Standby struct {
	cfg StandbyConfig

	mu    sync.Mutex
	state State
	seen  bool // at least one snapshot applied

	lastOK  time.Time
	stopped chan struct{}
	dead    chan struct{}
	once    sync.Once
	stopFn  sync.Once
	conn    transport.Conn // current connection, for teardown
}

// NewStandby starts replicating from the primary. The returned Standby's
// Dead channel closes when the primary is declared dead.
func NewStandby(cfg StandbyConfig) (*Standby, error) {
	if cfg.Standby == "" || cfg.Primary == "" {
		return nil, fmt.Errorf("replica: standby and primary names must be non-empty")
	}
	if cfg.Dial == nil {
		return nil, fmt.Errorf("replica: standby needs a Dial function")
	}
	if !cfg.Key.Valid() {
		return nil, fmt.Errorf("replica: invalid replication key")
	}
	if cfg.Silence <= 0 {
		cfg.Silence = 2 * time.Second
	}
	s := &Standby{
		cfg:     cfg,
		state:   State{Primary: cfg.Primary, Members: make(map[string]wire.ReplMember)},
		lastOK:  time.Now(),
		stopped: make(chan struct{}),
		dead:    make(chan struct{}),
	}
	go s.run()
	return s, nil
}

// Dead closes when the primary has been declared dead; the replicated
// State is then ready for promotion.
func (s *Standby) Dead() <-chan struct{} { return s.dead }

// Synced reports whether at least one snapshot has been applied.
func (s *Standby) Synced() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seen
}

// State returns a deep copy of the current replica.
func (s *Standby) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state.Clone()
}

// Stop halts replication without declaring the primary dead.
func (s *Standby) Stop() {
	s.stopFn.Do(func() { close(s.stopped) })
	s.mu.Lock()
	if s.conn != nil {
		_ = s.conn.Close()
	}
	s.mu.Unlock()
}

func (s *Standby) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf("replica[%s<-%s]: "+format, append([]any{s.cfg.Standby, s.cfg.Primary}, args...)...)
	}
}

func (s *Standby) declareDead() {
	s.once.Do(func() {
		mPrimaryDead.Inc()
		s.logf("primary declared dead after %v of silence", s.cfg.Silence)
		close(s.dead)
	})
}

func (s *Standby) stopping() bool {
	select {
	case <-s.stopped:
		return true
	case <-s.dead:
		return true
	default:
		return false
	}
}

// run subscribes, applies the stream, and re-subscribes on any break, until
// stopped or the silence budget since the last authenticated frame runs
// out.
func (s *Standby) run() {
	cipher, err := crypto.NewCipher(s.cfg.Key)
	if err != nil {
		s.logf("cipher: %v", err)
		s.declareDead()
		return
	}
	for !s.stopping() {
		if err := s.subscribeOnce(cipher); err != nil && !s.stopping() {
			s.logf("stream broken: %v", err)
		}
		if s.stopping() {
			return
		}
		s.mu.Lock()
		silentFor := time.Since(s.lastOK)
		s.mu.Unlock()
		if silentFor >= s.cfg.Silence {
			s.declareDead()
			return
		}
		mResubscribes.Inc()
		// Re-subscription is paced at a twentieth of the silence budget,
		// never faster than every 10 ms.
		select {
		case <-time.After(max(s.cfg.Silence/20, 10*time.Millisecond)):
		case <-s.stopped:
			return
		}
	}
}

// subscribeOnce dials, sends the hello, and applies the snapshot + delta
// stream until it breaks. A frame watchdog closes the connection when the
// stream has been silent past the remaining silence budget, bounding
// detection latency even when the connection never errors (a severed
// link).
func (s *Standby) subscribeOnce(cipher *crypto.Cipher) error {
	conn, err := s.cfg.Dial()
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	s.mu.Lock()
	s.conn = conn
	s.mu.Unlock()
	defer conn.Close()

	// Watchdog: wake periodically; if the silence budget is exhausted, kill
	// the connection so the Recv below unblocks.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		tick := s.cfg.Silence / 10
		if tick <= 0 {
			tick = 10 * time.Millisecond
		}
		for {
			select {
			case <-watchDone:
				return
			case <-s.stopped:
				_ = conn.Close()
				return
			case <-time.After(tick):
				s.mu.Lock()
				silent := time.Since(s.lastOK)
				s.mu.Unlock()
				if silent >= s.cfg.Silence {
					_ = conn.Close()
					return
				}
			}
		}
	}()

	n0, err := crypto.NewNonce()
	if err != nil {
		return err
	}
	hello := wire.Envelope{Type: wire.TypeReplState, Sender: s.cfg.Standby, Receiver: s.cfg.Primary}
	hp := wire.ReplStatePayload{Hello: true, Standby: s.cfg.Standby, Primary: s.cfg.Primary, Next: n0}
	box, err := cipher.Seal(hp.Marshal(), hello.Header())
	if err != nil {
		return err
	}
	hello.Payload = box
	if err := conn.Send(hello); err != nil {
		return fmt.Errorf("send hello: %w", err)
	}

	// First frame back must be the snapshot echoing N0.
	env, err := conn.Recv()
	if err != nil {
		return fmt.Errorf("recv snapshot: %w", err)
	}
	if env.Type != wire.TypeReplState {
		return fmt.Errorf("expected ReplState, got %s", env.Type)
	}
	plain, err := cipher.Open(env.Payload, env.Header())
	if err != nil {
		mChainBreaks.Inc()
		return fmt.Errorf("snapshot: %w", err)
	}
	snap, err := wire.UnmarshalReplState(plain)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if snap.Hello || snap.Primary != s.cfg.Primary || snap.Standby != s.cfg.Standby {
		return errors.New("snapshot names do not match")
	}
	if !snap.Echo.Equal(n0) {
		mChainBreaks.Inc()
		return errors.New("snapshot does not echo our hello nonce")
	}
	st := State{
		Primary:      s.cfg.Primary,
		Epoch:        snap.Epoch,
		GroupKey:     snap.GroupKey,
		AuditSeq:     snap.AuditSeq,
		Members:      make(map[string]wire.ReplMember, len(snap.Members)),
		LKHArity:     int(snap.LKHArity),
		RekeyPending: snap.RekeyPending,
	}
	for _, m := range snap.Members {
		st.Members[m.User] = m
	}
	if len(snap.Tree) > 0 {
		st.Tree = make(map[uint64]wire.ReplLKHNode, len(snap.Tree))
		for _, n := range snap.Tree {
			st.Tree[n.ID] = n
		}
	}
	last := snap.Next
	s.mu.Lock()
	s.state = st
	s.seen = true
	s.lastOK = time.Now()
	s.mu.Unlock()
	s.logf("snapshot applied: %d members, epoch %d, audit seq %d", len(st.Members), st.Epoch, st.AuditSeq)

	// Delta stream: each frame must extend the chain.
	for {
		env, err := conn.Recv()
		if err != nil {
			return fmt.Errorf("recv delta: %w", err)
		}
		if env.Type != wire.TypeReplDelta {
			return fmt.Errorf("expected ReplDelta, got %s", env.Type)
		}
		plain, err := cipher.Open(env.Payload, env.Header())
		if err != nil {
			mChainBreaks.Inc()
			return fmt.Errorf("delta: %w", err)
		}
		d, err := wire.UnmarshalReplDelta(plain)
		if err != nil {
			return fmt.Errorf("delta: %w", err)
		}
		if d.Primary != s.cfg.Primary || d.Standby != s.cfg.Standby {
			return errors.New("delta names do not match")
		}
		if !d.Echo.Equal(last) {
			mChainBreaks.Inc()
			return errors.New("delta breaks the nonce chain")
		}
		last = d.Next
		s.mu.Lock()
		s.state.Apply(d)
		s.lastOK = time.Now()
		s.mu.Unlock()
		mDeltasRecv.Inc()
	}
}
