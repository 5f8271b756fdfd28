// Failover: surviving the loss of the group leader.
//
// The paper's conclusion names its own main limitation: "the main limit of
// the current Enclaves architecture is its reliance on a central group
// leader", with future work on "a distributed set of group managers".
//
// Act 1 shows a cold standby: an independent leader that holds the user
// registry and none of the primary's state. Because membership is
// authenticated from the long-term keys P_a alone and every session key and
// group key is freshly generated, members that see the primary crash re-join
// the standby with the full three-message password handshake, and the group
// reconverges with completely fresh key material (old keys are worthless by
// design — the protocol is proven correct even when old session keys leak).
//
// The hot standby is the other path: internal/replica streams the
// primary's state to a standby (enclaved -standby), group.Promote makes it
// the leader, and members resume their sessions without a password
// handshake. TestFailoverResume, TestChaosFailoverUnderChurn and the
// README's "Leader replication & failover" section cover it.
//
// Both are crash failover only; tolerating a MALICIOUS leader genuinely
// requires the Byzantine machinery the paper cites (Rampart, SecureRing)
// and is out of scope, exactly as it was for the paper.
//
// Act 2 covers the harder failure: a leader that WEDGES instead of
// crashing. The connection stays open, so no transport error ever fires;
// only the liveness layer notices. The leader probes idle members with
// authenticated heartbeats, the member arms a silence watchdog
// (member.SessionConfig.SilenceTimeout), and when a partition blackholes
// the link both sides degrade gracefully: the member's Session fails over
// to the standby on its own, and the wedged leader expels the unreachable
// member (on-leave rekey + audit event), closing the forward-secrecy hole.
//
// Run with:
//
//	go run ./examples/failover
package main

import (
	"errors"
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"enclaves/internal/crypto"
	"enclaves/internal/faultnet"
	"enclaves/internal/group"
	"enclaves/internal/member"
	"enclaves/internal/transport"
)

const (
	primaryName = "leader-1"
	standbyName = "leader-2"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The user registry is replicated to both leaders out of band. Note
	// the long-term keys are derived per leader, so a compromise of one
	// leader's database does not impersonate users at the other.
	names := []string{"alice", "bob", "carol"}
	registry := func(leader string) map[string]crypto.Key {
		users := make(map[string]crypto.Key, len(names))
		for _, u := range names {
			users[u] = crypto.DeriveKey(u, leader, u+"-pw")
		}
		return users
	}

	net := transport.NewMemNetwork()
	defer net.Close()

	primary, err := startLeader(net, primaryName, registry(primaryName))
	if err != nil {
		return err
	}
	standby, err := startLeader(net, standbyName, registry(standbyName))
	if err != nil {
		return err
	}
	defer standby.Close()

	// Everyone joins the primary.
	members := make(map[string]*member.Member, len(names))
	for _, u := range names {
		m, err := joinVia(net, primaryName, u)
		if err != nil {
			return err
		}
		members[u] = m
	}
	if err := converge(primary, members); err != nil {
		return err
	}
	fmt.Printf("primary serving %v at epoch %d\n", primary.Members(), primary.Epoch())

	if err := members["alice"].SendData([]byte("pre-failover message")); err != nil {
		return err
	}
	if err := expectData(members["bob"], "pre-failover message"); err != nil {
		return err
	}
	fmt.Println("multicast through primary works")

	// The primary crashes.
	fmt.Println("\n*** primary crashes ***")
	primary.Close()

	// Every member sees its session die, then rejoins the standby. In a
	// deployment the standby address comes from configuration or DNS.
	for _, u := range names {
		waitClosed(members[u])
		m, err := joinVia(net, standbyName, u)
		if err != nil {
			return fmt.Errorf("rejoin %s: %w", u, err)
		}
		members[u] = m
		fmt.Printf("%s rejoined via standby\n", u)
	}
	if err := converge(standby, members); err != nil {
		return err
	}
	fmt.Printf("\nstandby serving %v at epoch %d (all keys fresh)\n", standby.Members(), standby.Epoch())

	if err := members["carol"].SendData([]byte("post-failover message")); err != nil {
		return err
	}
	if err := expectData(members["alice"], "post-failover message"); err != nil {
		return err
	}
	fmt.Println("multicast through standby works — the group survived the leader loss")

	for _, m := range members {
		if err := m.Leave(); err != nil {
			return err
		}
	}

	return silentLeaderAct(net, standby, registry)
}

// silentLeaderAct demonstrates surviving a leader that goes silent without
// crashing: heartbeats stop arriving, the member's silence watchdog fires,
// and the auto-rejoining Session moves to the standby with no manual step.
func silentLeaderAct(net *transport.MemNetwork, standby *group.Leader, registry func(string) map[string]crypto.Key) error {
	const wedgedName = "leader-3"
	fmt.Println("\n*** act 2: a fresh primary wedges instead of crashing ***")

	departed := make(chan group.Event, 1)
	wedged, err := group.NewLeader(group.Config{
		Name:  wedgedName,
		Users: registry(wedgedName),
		Rekey: group.DefaultRekeyPolicy(),
		// Heartbeat fast so a healthy-but-idle member is clearly alive; the
		// ack deadline is longer than the member's silence timeout so the
		// member-side failover observably happens first.
		Liveness: group.Liveness{
			HeartbeatInterval: 200 * time.Millisecond,
			AckTimeout:        2 * time.Second,
		},
		// Over this in-memory transport the member's own hang-up reaches the
		// wedged leader as a connection close (EventLeft); across a REAL
		// partition no FIN crosses and the ack deadline expels the member
		// instead (EventEvicted — see TestChaosSoak and the group liveness
		// tests). Either way the departure fires the on-leave rekey.
		OnEvent: func(e group.Event) {
			if (e.Kind == group.EventLeft || e.Kind == group.EventEvicted) && e.User == "alice" {
				select {
				case departed <- e:
				default:
				}
			}
		},
	})
	if err != nil {
		return err
	}
	defer wedged.Close()
	l, err := net.Listen(wedgedName)
	if err != nil {
		return err
	}
	go wedged.Serve(l)

	// The first dial reaches the primary through a link that blackholes
	// after one second — the leader keeps running but nothing crosses the
	// wire, which is exactly what a wedged or partitioned leader looks
	// like. Rejoin attempts treat the primary as unreachable.
	var dials int32
	primaryEP := member.Endpoint{
		Leader:   wedgedName,
		LongTerm: crypto.DeriveKey("alice", wedgedName, "alice-pw"),
		Dial: func() (transport.Conn, error) {
			if atomic.AddInt32(&dials, 1) > 1 {
				return nil, errors.New("wedged primary unreachable")
			}
			raw, err := net.Dial(wedgedName)
			if err != nil {
				return nil, err
			}
			return faultnet.Wrap(raw, faultnet.Plan{
				Partitions: []faultnet.Partition{{Start: time.Second, Stop: time.Hour}},
			}), nil
		},
	}
	standbyEP := member.Endpoint{
		Leader:   standbyName,
		LongTerm: crypto.DeriveKey("alice", standbyName, "alice-pw"),
		Dial:     func() (transport.Conn, error) { return net.Dial(standbyName) },
	}
	s, err := member.NewSession(member.SessionConfig{
		User:           "alice",
		Endpoints:      []member.Endpoint{primaryEP, standbyEP},
		Backoff:        50 * time.Millisecond,
		SilenceTimeout: 600 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer s.Close()
	go func() {
		for {
			if _, err := s.Next(); err != nil {
				return
			}
		}
	}()
	fmt.Printf("alice joined %s; heartbeats every 200ms keep the session alive\n", wedgedName)

	// The partition opens at t=1s. No error reaches alice — only silence.
	deadline := time.Now().Add(15 * time.Second)
	failedOver := false
	for time.Now().Before(deadline) {
		for _, m := range standby.Members() {
			if m == "alice" {
				failedOver = true
			}
		}
		if failedOver {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !failedOver {
		return errors.New("alice never failed over to the standby")
	}
	fmt.Println("silence watchdog fired — alice failed over to the standby automatically")

	select {
	case ev := <-departed:
		fmt.Printf("wedged primary dropped the unreachable member (%s, epoch %d — keys rotated)\n", ev.Kind, ev.Epoch)
	case <-time.After(15 * time.Second):
		return errors.New("wedged primary never dropped alice")
	}
	fmt.Println("both halves of the liveness layer held: member found a live leader, leader shed a dead member")
	return nil
}

func startLeader(net *transport.MemNetwork, name string, users map[string]crypto.Key) (*group.Leader, error) {
	g, err := group.NewLeader(group.Config{Name: name, Users: users, Rekey: group.DefaultRekeyPolicy()})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen(name)
	if err != nil {
		return nil, err
	}
	go g.Serve(l)
	return g, nil
}

func joinVia(net *transport.MemNetwork, leader, user string) (*member.Member, error) {
	conn, err := net.Dial(leader)
	if err != nil {
		return nil, err
	}
	return member.Join(conn, user, leader, crypto.DeriveKey(user, leader, user+"-pw"))
}

// converge waits until every member matches the leader's epoch and roster.
func converge(g *group.Leader, members map[string]*member.Member) error {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ok := true
		for _, m := range members {
			if m.Epoch() != g.Epoch() || len(m.Members()) != len(g.Members()) {
				ok = false
				break
			}
		}
		if ok {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("group never converged on %s", g.Name())
}

// expectData waits for a data event with the given payload.
func expectData(m *member.Member, want string) error {
	deadline := time.After(5 * time.Second)
	for {
		select {
		case <-deadline:
			return fmt.Errorf("%s: timed out waiting for %q", m.Name(), want)
		default:
		}
		ev, ok := m.TryNext()
		if !ok {
			time.Sleep(time.Millisecond)
			continue
		}
		if ev.Kind == member.EventData && string(ev.Data) == want {
			return nil
		}
	}
}

// waitClosed drains a member's events until the closed notification.
func waitClosed(m *member.Member) {
	for {
		ev, err := m.Next()
		if err != nil || ev.Kind == member.EventClosed {
			return
		}
	}
}
