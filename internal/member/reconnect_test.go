package member

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"enclaves/internal/crypto"
	"enclaves/internal/group"
	"enclaves/internal/transport"
)

// startLeader brings up a group leader on the in-memory network.
func startLeader(t *testing.T, net *transport.MemNetwork, name string, users []string) *group.Leader {
	t.Helper()
	keys := make(map[string]crypto.Key, len(users))
	for _, u := range users {
		keys[u] = crypto.DeriveKey(u, name, u+"-pw")
	}
	g, err := group.NewLeader(group.Config{Name: name, Users: keys, Rekey: group.DefaultRekeyPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen(name)
	if err != nil {
		t.Fatal(err)
	}
	go g.Serve(l)
	t.Cleanup(func() {
		g.Close()
		l.Close()
	})
	return g
}

func endpoint(net *transport.MemNetwork, leader, user string) Endpoint {
	return Endpoint{
		Leader:   leader,
		LongTerm: crypto.DeriveKey(user, leader, user+"-pw"),
		Dial:     func() (transport.Conn, error) { return net.Dial(leader) },
	}
}

func waitSession(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestSessionJoinsAndSends(t *testing.T) {
	net := transport.NewMemNetwork()
	defer net.Close()
	g := startLeader(t, net, "primary", []string{"alice", "bob"})

	s, err := NewSession(SessionConfig{
		User:      "alice",
		Endpoints: []Endpoint{endpoint(net, "primary", "alice")},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if !s.Up() {
		t.Fatal("session not up after NewSession")
	}
	waitSession(t, "leader sees alice", func() bool { return len(g.Members()) == 1 })
	if err := s.SendData([]byte("hi")); err != nil {
		t.Fatalf("send: %v", err)
	}
	if s.Epoch() == 0 {
		t.Error("session has no epoch despite WaitReady")
	}
}

func TestSessionFailsOverToStandby(t *testing.T) {
	net := transport.NewMemNetwork()
	defer net.Close()

	// A dedicated listener handle for the primary so we can crash it.
	primaryKeys := map[string]crypto.Key{"alice": crypto.DeriveKey("alice", "primary", "alice-pw")}
	primary, err := group.NewLeader(group.Config{Name: "primary", Users: primaryKeys, Rekey: group.DefaultRekeyPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := net.Listen("primary")
	if err != nil {
		t.Fatal(err)
	}
	go primary.Serve(pl)

	standby := startLeader(t, net, "standby", []string{"alice"})

	s, err := NewSession(SessionConfig{
		User: "alice",
		Endpoints: []Endpoint{
			endpoint(net, "primary", "alice"),
			endpoint(net, "standby", "alice"),
		},
		Backoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	waitSession(t, "joined primary", func() bool { return len(primary.Members()) == 1 })

	// Crash the primary: the session must rejoin via the standby.
	pl.Close()
	primary.Close()
	waitSession(t, "failed over to standby", func() bool { return len(standby.Members()) == 1 })
	waitSession(t, "session back up", func() bool { return s.Up() && s.Epoch() > 0 })

	if err := s.SendData([]byte("post failover")); err != nil {
		t.Fatalf("send after failover: %v", err)
	}

	// The unified event stream saw two of our own joins.
	joins := 0
	deadline := time.Now().Add(5 * time.Second)
	for joins < 2 && time.Now().Before(deadline) {
		ev, ok := s.TryNext()
		if !ok {
			time.Sleep(time.Millisecond)
			continue
		}
		if ev.Kind == EventJoined && ev.Name == "alice" {
			joins++
		}
	}
	if joins < 2 {
		t.Errorf("saw %d self-joins, want 2", joins)
	}
}

func TestSessionVoluntaryClose(t *testing.T) {
	net := transport.NewMemNetwork()
	defer net.Close()
	g := startLeader(t, net, "primary", []string{"alice"})

	s, err := NewSession(SessionConfig{
		User:      "alice",
		Endpoints: []Endpoint{endpoint(net, "primary", "alice")},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitSession(t, "joined", func() bool { return len(g.Members()) == 1 })
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	waitSession(t, "left at leader", func() bool { return len(g.Members()) == 0 })

	// No rejoin happens after a voluntary close.
	time.Sleep(20 * time.Millisecond)
	if len(g.Members()) != 0 {
		t.Error("session rejoined after voluntary close")
	}
	if err := s.Close(); !errors.Is(err, ErrLeft) {
		t.Errorf("double close: %v", err)
	}
}

func TestSessionConfigValidation(t *testing.T) {
	if _, err := NewSession(SessionConfig{User: "", Endpoints: []Endpoint{{}}}); err == nil {
		t.Error("empty user accepted")
	}
	if _, err := NewSession(SessionConfig{User: "alice"}); err == nil {
		t.Error("no endpoints accepted")
	}
	// Unreachable endpoint fails the initial join.
	net := transport.NewMemNetwork()
	defer net.Close()
	_, err := NewSession(SessionConfig{
		User:      "alice",
		Endpoints: []Endpoint{endpoint(net, "nowhere", "alice")},
	})
	if err == nil {
		t.Error("unreachable endpoint accepted")
	}
}

// TestCloseDuringRejoinRace: a Close that lands while a rejoin attempt is
// in flight finds no current member to Leave — the attempt must then
// dismantle whatever it joined instead of installing it into the closed
// session, or the member stays installed in a session nobody will ever
// close again and Close waits for a round that never ends (found as a teardown hang in BenchmarkFailover
// at 1024 members). The redial is gated so the window is held open
// deterministically.
func TestCloseDuringRejoinRace(t *testing.T) {
	net := transport.NewMemNetwork()
	defer net.Close()
	g := startLeader(t, net, "primary", []string{"alice"})

	var calls atomic.Int32
	dialing := make(chan struct{})
	gate := make(chan struct{})
	ep := endpoint(net, "primary", "alice")
	base := ep.Dial
	ep.Dial = func() (transport.Conn, error) {
		if calls.Add(1) == 1 {
			return base()
		}
		dialing <- struct{}{}
		<-gate
		return base()
	}

	s, err := NewSession(SessionConfig{
		User:      "alice",
		Endpoints: []Endpoint{ep},
		Backoff:   2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Involuntary loss: the leader drops the live connection, and the
	// resulting rejoin attempt is held open at its dial.
	if err := g.Expel("alice"); err != nil {
		t.Fatal(err)
	}
	<-dialing

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	waitSession(t, "close marks the session", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.closed
	})
	close(gate) // the in-flight rejoin now completes against the live leader

	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung: in-flight rejoin was installed into a closed session")
	}
	waitSession(t, "leader drains the raced join", func() bool { return len(g.Members()) == 0 })
}

// TestSilentEndpointCannotWedgeSession: an endpoint that accepts the
// connection and never answers. With no SilenceTimeout the handshake has no
// deadline of its own, so every attach attempt is bounded by ReadyTimeout,
// and Close ends the attempt in flight instead of waiting it out.
func TestSilentEndpointCannotWedgeSession(t *testing.T) {
	net := transport.NewMemNetwork()
	defer net.Close()
	silent, err := net.Listen("silent")
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	accepted := make(chan transport.Conn, 16) // holds the few conns the test opens, so none is collected or closed
	go func() {
		for {
			c, err := silent.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()

	// NewSession gives up on the silent endpoint after ReadyTimeout.
	failed := make(chan error, 1)
	go func() {
		_, err := NewSession(SessionConfig{
			User:         "alice",
			Endpoints:    []Endpoint{endpoint(net, "silent", "alice")},
			ReadyTimeout: 50 * time.Millisecond,
		})
		failed <- err
	}()
	select {
	case err := <-failed:
		if err == nil {
			t.Fatal("session came up against an endpoint that never answered")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("NewSession wedged on an endpoint that accepts and stays silent")
	}
	<-accepted

	// A rejoin stuck on the silent endpoint, with ReadyTimeout far away: only
	// Close reaching the in-flight connection can end it.
	g := startLeader(t, net, "primary", []string{"alice"})
	var calls atomic.Int32
	ep := endpoint(net, "primary", "alice")
	ep.Dial = func() (transport.Conn, error) {
		if calls.Add(1) == 1 {
			return net.Dial("primary")
		}
		return net.Dial("silent")
	}
	s, err := NewSession(SessionConfig{
		User:         "alice",
		Endpoints:    []Endpoint{ep},
		Backoff:      2 * time.Millisecond,
		ReadyTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Expel("alice"); err != nil {
		t.Fatal(err)
	}
	<-accepted // the rejoin attempt is now parked on the silent endpoint

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung behind an attach attempt the endpoint never answered")
	}
}
