package group

import (
	"strings"
	"sync"
	"testing"

	"enclaves/internal/crypto"
	"enclaves/internal/member"
	"enclaves/internal/transport"
	"enclaves/internal/wire"
)

// eventLog is a concurrency-safe audit sink for tests.
type eventLog struct {
	mu     sync.Mutex
	events []Event
}

func (l *eventLog) sink(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, e)
}

func (l *eventLog) snapshot() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event(nil), l.events...)
}

func (l *eventLog) count(kind EventKind) int {
	n := 0
	for _, e := range l.snapshot() {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// auditGroup builds a leader with the audit sink attached.
func auditGroup(t *testing.T, log *eventLog, users ...string) (*Leader, *transport.MemNetwork) {
	t.Helper()
	keys := make(map[string]crypto.Key, len(users))
	for _, u := range users {
		keys[u] = crypto.DeriveKey(u, leaderName, u+"-pw")
	}
	g, err := NewLeader(Config{
		Name:    leaderName,
		Users:   keys,
		Rekey:   DefaultRekeyPolicy(),
		OnEvent: log.sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	net := NewMemNetworkForTest(t)
	l, err := net.Listen(leaderName)
	if err != nil {
		t.Fatal(err)
	}
	go g.Serve(l)
	t.Cleanup(func() {
		g.Close()
		l.Close()
	})
	return g, net
}

func TestAuditLifecycleEvents(t *testing.T) {
	var log eventLog
	g, net := auditGroup(t, &log, "alice", "bob", "carol")

	alice := join(t, net, "alice")
	bob := join(t, net, "bob")
	carol := join(t, net, "carol")
	defer carol.Leave()
	waitFor(t, "three members", func() bool { return len(g.Members()) == 3 })
	waitFor(t, "three join events", func() bool { return log.count(EventJoined) == 3 })

	if err := g.Rekey(); err != nil {
		t.Fatal(err)
	}
	if err := alice.Leave(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "left event", func() bool { return log.count(EventLeft) == 1 })

	if err := g.Expel("bob"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "expel event", func() bool { return log.count(EventExpelled) == 1 })
	// The expulsion's rotation is recorded after the expulsion itself, so the
	// dispatcher may not have delivered it yet.
	waitFor(t, "six rotations", func() bool { return log.count(EventRekeyed) == 6 })
	_ = bob

	// Events carry the right users, and every rotation names its cause: with
	// notice and key in one message, "why did the epoch move" is answered by
	// the audit stream alone.
	var joinedUsers, causes []string
	for _, e := range log.snapshot() {
		switch e.Kind {
		case EventJoined:
			joinedUsers = append(joinedUsers, e.User)
		case EventRekeyed:
			causes = append(causes, e.Detail)
		}
	}
	if strings.Join(joinedUsers, ",") != "alice,bob,carol" {
		t.Errorf("joined users = %v", joinedUsers)
	}
	if want := "join alice,join bob,join carol,manual,leave alice,expel bob"; strings.Join(causes, ",") != want {
		t.Errorf("rekey causes = %q, want %q", causes, want)
	}
}

func TestAuditRejectedEvents(t *testing.T) {
	var log eventLog
	g, net := auditGroup(t, &log, "alice")
	alice := join(t, net, "alice")
	defer alice.Leave()
	waitFor(t, "joined", func() bool { return len(g.Members()) == 1 })

	// Inject a forged Ack straight at the leader through a second raw
	// connection? The leader only reads protocol frames on the member's
	// own connection, so replay alice's path: craft a forged ReqClose
	// under a wrong key and deliver it via a fresh connection pretending
	// to be mid-handshake — simplest is to send a valid AuthInitReq and
	// then garbage.
	conn, err := net.Dial(leaderName)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A genuine first frame so the leader opens a session for "alice"...
	engineKey := crypto.DeriveKey("alice", leaderName, "alice-pw")
	m2, err := joinRaw(conn, "alice", engineKey)
	if err != nil {
		t.Fatal(err)
	}
	// ...then a forged close under a random key: the engine rejects it and
	// the audit stream must record the rejection.
	evil, _ := crypto.NewKey()
	forged := wire.Envelope{Type: wire.TypeReqClose, Sender: "alice", Receiver: leaderName}
	box, _ := crypto.Seal(evil, wire.ClosePayload{User: "alice", Leader: leaderName}.Marshal(), forged.Header())
	forged.Payload = box
	if err := conn.Send(forged); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "rejection audited", func() bool { return log.count(EventRejected) >= 1 })
	_ = m2

	events := log.snapshot()
	found := false
	for _, e := range events {
		if e.Kind == EventRejected && e.User == "alice" && e.Detail != "" {
			found = true
		}
	}
	if !found {
		t.Errorf("no detailed rejection event: %v", events)
	}
}

// joinRaw performs the improved handshake by hand on a raw connection and
// returns after the member is accepted (without a member runtime).
func joinRaw(conn transport.Conn, user string, longTerm crypto.Key) (string, error) {
	m, err := member.Join(conn, user, leaderName, longTerm)
	if err != nil {
		return "", err
	}
	return m.Name(), nil
}

func TestAuditStopsCleanly(t *testing.T) {
	var log eventLog
	keys := map[string]crypto.Key{"alice": crypto.DeriveKey("alice", leaderName, "alice-pw")}
	g, err := NewLeader(Config{Name: leaderName, Users: keys, OnEvent: log.sink})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Rekey(); err != nil {
		t.Fatal(err)
	}
	// Close must drain pending audit events before returning.
	g.Close()
	if log.count(EventRekeyed) != 1 {
		t.Errorf("rekey event lost on close: %v", log.snapshot())
	}
}

func TestEventString(t *testing.T) {
	e := Event{Kind: EventRejected, User: "eve", Epoch: 3, Detail: "replay"}
	s := e.String()
	if !strings.Contains(s, "Rejected") || !strings.Contains(s, "eve") || !strings.Contains(s, "replay") {
		t.Errorf("String = %q", s)
	}
	kinds := map[EventKind]string{
		EventJoined: "Joined", EventLeft: "Left", EventExpelled: "Expelled",
		EventRekeyed: "Rekeyed", EventRejected: "Rejected",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}
