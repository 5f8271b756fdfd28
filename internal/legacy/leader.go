// Package legacy implements the ORIGINAL Enclaves protocols of Section 2.2
// as a runnable baseline, faithfully preserving the weaknesses catalogued
// in Section 2.3:
//
//   - the pre-authentication exchange (req_open / ack_open /
//     connection_denied) is plaintext, so anyone can deny service;
//   - new_key messages carry no freshness evidence, so replaying an old
//     new_key rolls a member back to a compromised group key;
//   - mem_removed / mem_added are encrypted under the shared group key, so
//     any member can forge membership changes.
//
// The attack scenarios in package attack run against this implementation
// and succeed; the same scenarios against the improved implementation
// (packages core/group/member) fail. Do not use this package for anything
// but comparison.
package legacy

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"enclaves/internal/crypto"
	"enclaves/internal/queue"
	"enclaves/internal/transport"
	"enclaves/internal/wire"
)

// LeaderConfig configures a legacy leader.
type LeaderConfig struct {
	// Name is the leader's identity.
	Name string
	// Users maps authorized users to their long-term keys.
	Users map[string]crypto.Key
	// RekeyOnLeave rotates the group key when members leave (the policy
	// the replay attack subverts).
	RekeyOnLeave bool
	// Logf, if non-nil, receives diagnostic log lines.
	Logf func(format string, args ...any)
}

// Leader is a running legacy Enclaves leader.
type Leader struct {
	name         string
	rekeyOnLeave bool
	logf         func(string, ...any)

	mu       sync.Mutex
	users    map[string]crypto.Key
	sessions map[string]*legacySession
	conns    map[transport.Conn]bool
	groupKey crypto.Key
	epoch    uint64
	closed   bool

	wg sync.WaitGroup
}

type legacySession struct {
	user       string
	conn       transport.Conn
	sessionKey crypto.Key
	out        *queue.Queue[wire.Envelope]
}

// NewLeader creates a legacy leader with the initial group key (epoch 1).
func NewLeader(cfg LeaderConfig) (*Leader, error) {
	if cfg.Name == "" {
		return nil, errors.New("legacy: leader name must be non-empty")
	}
	users := make(map[string]crypto.Key, len(cfg.Users))
	for u, k := range cfg.Users {
		if !k.Valid() {
			return nil, fmt.Errorf("legacy: invalid long-term key for %q", u)
		}
		users[u] = k
	}
	kg, err := crypto.NewKey()
	if err != nil {
		return nil, err
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Leader{
		name:         cfg.Name,
		rekeyOnLeave: cfg.RekeyOnLeave,
		logf:         logf,
		users:        users,
		sessions:     make(map[string]*legacySession),
		conns:        make(map[transport.Conn]bool),
		groupKey:     kg,
		epoch:        1,
	}, nil
}

// Members returns the current membership, sorted.
func (g *Leader) Members() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, 0, len(g.sessions))
	for u := range g.sessions {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// Epoch returns the current group-key epoch.
func (g *Leader) Epoch() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.epoch
}

// GroupKey returns the current group key and epoch.
func (g *Leader) GroupKey() (crypto.Key, uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.groupKey, g.epoch
}

// Serve accepts member connections until the listener fails or Close is
// called.
func (g *Leader) Serve(l transport.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			g.mu.Lock()
			closed := g.closed
			g.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("legacy: accept: %w", err)
		}
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			g.serveConn(conn)
		}()
	}
}

// Close disconnects everyone and stops serving.
func (g *Leader) Close() {
	g.mu.Lock()
	g.closed = true
	conns := make([]transport.Conn, 0, len(g.conns))
	for c := range g.conns {
		conns = append(conns, c)
	}
	for _, s := range g.sessions {
		s.out.Close()
	}
	g.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	g.wg.Wait()
}

// Rekey distributes a new group key to every member via new_key messages.
func (g *Leader) Rekey() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.rekeyLocked()
}

func (g *Leader) rekeyLocked() error {
	kg, err := crypto.NewKey()
	if err != nil {
		return err
	}
	g.groupKey = kg
	g.epoch++
	g.logf("legacy: rekey to epoch %d", g.epoch)
	for _, s := range g.sessions {
		g.sendNewKeyLocked(s)
	}
	return nil
}

// sendNewKeyLocked sends L -> A: new_key, {K'g, IV}_Ka.
func (g *Leader) sendNewKeyLocked(s *legacySession) {
	env := wire.Envelope{Type: wire.TypeNewKey, Sender: g.name, Receiver: s.user}
	p := wire.LegacyNewKeyPayload{GroupKey: g.groupKey, GroupEpoch: g.epoch}
	//enclavelint:ignore lockorder frozen Section-2 baseline: new_key for every member must seal the same K'g/epoch snapshot atomically; restructuring would change the legacy protocol's ordering, which the attack suite depends on
	box, err := crypto.Seal(s.sessionKey, p.Marshal(), env.Header())
	if err != nil {
		g.logf("legacy: seal new_key: %v", err)
		return
	}
	env.Payload = box
	g.push(s, env)
}

// Expel removes a member: mem_removed {user}_Kg to the rest, connection
// dropped, and a rekey if the policy says so.
func (g *Leader) Expel(user string) error {
	g.mu.Lock()
	s, ok := g.sessions[user]
	if !ok {
		g.mu.Unlock()
		return fmt.Errorf("legacy: %q is not a member", user)
	}
	delete(g.sessions, user)
	g.announceMembershipLocked(wire.TypeMemRemoved, user)
	if g.rekeyOnLeave && len(g.sessions) > 0 {
		if err := g.rekeyLocked(); err != nil {
			g.logf("legacy: rekey on expel: %v", err)
		}
	}
	g.mu.Unlock()
	s.out.Close()
	s.conn.Close()
	g.logf("legacy: expelled %s", user)
	return nil
}

// announceMembershipLocked sends mem_removed/mem_added {name}_Kg to every
// current member — under the SHARED group key (the Section 2.3 weakness).
func (g *Leader) announceMembershipLocked(t wire.Type, name string) {
	for _, s := range g.sessions {
		env := wire.Envelope{Type: t, Sender: g.name, Receiver: s.user}
		p := wire.LegacyMemberPayload{Name: name}
		//enclavelint:ignore lockorder frozen Section-2 baseline: mem_* must be sealed under the same Kg snapshot as the membership change itself, or a concurrent rekey could split the view; this coupling IS the documented legacy weakness
		box, err := crypto.Seal(g.groupKey, p.Marshal(), env.Header())
		if err != nil {
			continue
		}
		env.Payload = box
		g.push(s, env)
	}
}

func (g *Leader) push(s *legacySession, env wire.Envelope) {
	if err := s.out.Push(env); err != nil {
		g.logf("legacy: outbox of %s closed", s.user)
	}
}

// serveConn handles one member connection through pre-auth, authentication
// and the connected phase.
func (g *Leader) serveConn(conn transport.Conn) {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		conn.Close()
		return
	}
	g.conns[conn] = true
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		delete(g.conns, conn)
		g.mu.Unlock()
		conn.Close()
	}()

	user, sessionKey, ok := g.authenticate(conn)
	if !ok {
		return
	}

	s := &legacySession{
		user:       user,
		conn:       conn,
		sessionKey: sessionKey,
		out:        queue.New[wire.Envelope](),
	}
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for {
			env, err := s.out.Pop()
			if err != nil {
				return
			}
			if err := s.conn.Send(env); err != nil {
				return
			}
		}
	}()

	g.mu.Lock()
	// Tell the newcomer who is already in ("sends to A the identity of all
	// the other group members", Section 2.2), one mem_added per member.
	for existing := range g.sessions {
		env := wire.Envelope{Type: wire.TypeMemAdded, Sender: g.name, Receiver: user}
		p := wire.LegacyMemberPayload{Name: existing}
		//enclavelint:ignore lockorder frozen Section-2 baseline: the join-time member list must be a consistent snapshot sealed under the same Kg that admitted the newcomer
		if box, err := crypto.Seal(g.groupKey, p.Marshal(), env.Header()); err == nil {
			env.Payload = box
			g.push(s, env)
		}
	}
	g.sessions[user] = s
	g.announceMembershipLocked(wire.TypeMemAdded, user)
	g.mu.Unlock()
	g.logf("legacy: %s joined", user)

	g.readLoop(s)

	g.mu.Lock()
	if cur, ok := g.sessions[s.user]; ok && cur == s {
		delete(g.sessions, s.user)
		g.announceMembershipLocked(wire.TypeMemRemoved, s.user)
		if g.rekeyOnLeave && len(g.sessions) > 0 {
			if err := g.rekeyLocked(); err != nil {
				g.logf("legacy: rekey on leave: %v", err)
			}
		}
	}
	g.mu.Unlock()
	s.out.Close()
	<-writerDone
}

// authenticate runs the pre-auth exchange and the three-message legacy
// authentication. It returns the user name and session key on success.
func (g *Leader) authenticate(conn transport.Conn) (string, crypto.Key, bool) {
	// 1. A -> L: A, req_open; 2. L -> A: ack_open (policy: known users are
	// accepted, unknown users are denied IN PLAINTEXT — anyone can forge
	// this denial, which is attack A1).
	env, err := conn.Recv()
	if err != nil || env.Type != wire.TypeReqOpen {
		return "", crypto.Key{}, false
	}
	req, err := wire.UnmarshalLegacyOpen(env.Payload)
	if err != nil {
		return "", crypto.Key{}, false
	}
	user := req.From
	g.mu.Lock()
	longTerm, known := g.users[user]
	g.mu.Unlock()
	if !known {
		denial := wire.Envelope{Type: wire.TypeConnDenied, Sender: g.name, Receiver: user,
			Payload: wire.LegacyOpenPayload{From: g.name}.Marshal()}
		_ = conn.Send(denial)
		return "", crypto.Key{}, false
	}
	ack := wire.Envelope{Type: wire.TypeAckOpen, Sender: g.name, Receiver: user,
		Payload: wire.LegacyOpenPayload{From: g.name}.Marshal()}
	if err := conn.Send(ack); err != nil {
		return "", crypto.Key{}, false
	}

	// 1. A -> L: {A, L, N1}_Pa.
	env, err = conn.Recv()
	if err != nil || env.Type != wire.TypeLegacyAuth1 {
		return "", crypto.Key{}, false
	}
	plain, err := crypto.Open(longTerm, env.Payload, env.Header())
	if err != nil {
		g.logf("legacy: auth1 from %s: %v", user, err)
		return "", crypto.Key{}, false
	}
	a1, err := wire.UnmarshalAuthInit(plain)
	if err != nil || a1.User != user || a1.Leader != g.name {
		return "", crypto.Key{}, false
	}

	// 2. L -> A: {L, A, N1, N2, Ka, IV, Kg}_Pa — note the group key rides
	// along, exactly as in Section 2.2.
	ka, err := crypto.NewKey()
	if err != nil {
		return "", crypto.Key{}, false
	}
	n2, err := crypto.NewNonce()
	if err != nil {
		return "", crypto.Key{}, false
	}
	g.mu.Lock()
	kg, epoch := g.groupKey, g.epoch
	g.mu.Unlock()
	reply := wire.Envelope{Type: wire.TypeLegacyAuth2, Sender: g.name, Receiver: user}
	a2 := wire.LegacyAuth2Payload{
		Leader: g.name, User: user, N1: a1.N1, N2: n2,
		SessionKey: ka, GroupKey: kg, GroupEpoch: epoch,
	}
	box, err := crypto.Seal(longTerm, a2.Marshal(), reply.Header())
	if err != nil {
		return "", crypto.Key{}, false
	}
	reply.Payload = box
	if err := conn.Send(reply); err != nil {
		return "", crypto.Key{}, false
	}

	// 3. A -> L: {N2}_Ka.
	env, err = conn.Recv()
	if err != nil || env.Type != wire.TypeLegacyAuth3 {
		return "", crypto.Key{}, false
	}
	plain, err = crypto.Open(ka, env.Payload, env.Header())
	if err != nil {
		return "", crypto.Key{}, false
	}
	a3, err := wire.UnmarshalLegacyAuth3(plain)
	if err != nil || !a3.N2.Equal(n2) {
		return "", crypto.Key{}, false
	}
	return user, ka, true
}

// readLoop processes a connected member's frames.
func (g *Leader) readLoop(s *legacySession) {
	for {
		env, err := s.conn.Recv()
		if err != nil {
			return
		}
		switch env.Type {
		case wire.TypeAppData:
			g.relay(s, env)
		case wire.TypeNewKeyAck:
			// Acknowledgment of a new_key; nothing to verify in the
			// legacy protocol.
		case wire.TypeLegacyReqClose:
			// Plaintext close — the leader honours it without any proof
			// of origin (faithful to Section 2.2's "A, req_close").
			closeEnv := wire.Envelope{Type: wire.TypeCloseConn, Sender: g.name, Receiver: s.user,
				Payload: wire.LegacyOpenPayload{From: g.name}.Marshal()}
			g.push(s, closeEnv)
			return
		default:
			g.logf("legacy: unexpected %s from %s", env.Type, s.user)
		}
	}
}

// relay forwards application data to every other member.
func (g *Leader) relay(from *legacySession, env wire.Envelope) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for user, s := range g.sessions {
		if user == from.user {
			continue
		}
		g.push(s, env)
	}
}
