// Quickstart: one leader and two members over TCP loopback.
//
// It shows the full lifecycle of an Enclaves group application built on the
// improved intrusion-tolerant protocol: deriving long-term keys from
// passwords, starting a leader on a socket, joining, multicasting encrypted
// data, rotating the group key, and leaving. Each step must finish within
// five seconds, so a broken step exits non-zero.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"enclaves/internal/crypto"
	"enclaves/internal/group"
	"enclaves/internal/member"
	"enclaves/internal/transport"
)

// timeout bounds every step the example waits on.
const timeout = 5 * time.Second

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const leaderName = "leader"

	// 1. Every prospective member shares a password-derived long-term key
	//    P_a with the leader (Section 2.2 of the paper).
	users := map[string]crypto.Key{
		"alice": crypto.DeriveKey("alice", leaderName, "alice's secret"),
		"bob":   crypto.DeriveKey("bob", leaderName, "bob's secret"),
	}

	// 2. Start the leader on an ephemeral loopback port. The rekey policy
	//    rotates the group key on every join and leave.
	leader, err := group.NewLeader(group.Config{
		Name:  leaderName,
		Users: users,
		Rekey: group.DefaultRekeyPolicy(),
	})
	if err != nil {
		return err
	}
	listener, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer listener.Close()
	go leader.Serve(listener)
	defer leader.Close()
	fmt.Println("leader listening on", listener.Addr())

	// 3. Members join through the three-message authenticated handshake,
	//    each on its own TCP connection.
	alice, err := joinMember(listener.Addr(), "alice", leaderName, "alice's secret")
	if err != nil {
		return err
	}
	bob, err := joinMember(listener.Addr(), "bob", leaderName, "bob's secret")
	if err != nil {
		return err
	}
	fmt.Println("leader sees members:", leader.Members())

	// 4. Wait until both members converged on the same group-key epoch.
	if err := waitEpochConvergence(leader, alice, bob); err != nil {
		return err
	}
	fmt.Printf("group key epoch: %d\n", leader.Epoch())
	fmt.Println("alice's view:   ", alice.Members())
	fmt.Println("bob's view:     ", bob.Members())

	// 5. Multicast: alice sends, bob receives (relayed by the leader,
	//    encrypted end-to-end under the group key).
	if err := alice.SendData([]byte("hello, group!")); err != nil {
		return err
	}
	ev, err := waitKind(bob, member.EventData)
	if err != nil {
		return err
	}
	fmt.Printf("bob received from %s: %q\n", ev.From, ev.Data)

	// 6. Rotate the group key on demand (e.g. a periodic policy).
	before := leader.Epoch()
	if err := leader.Rekey(); err != nil {
		return err
	}
	if _, err := waitKind(alice, member.EventRekey); err != nil {
		return err
	}
	fmt.Printf("rekeyed: epoch %d -> %d\n", before, leader.Epoch())

	// 7. Leave. The remaining member is told and the key rotates again, so
	//    alice cannot read future traffic.
	if err := alice.Leave(); err != nil {
		return err
	}
	if _, err := waitKind(bob, member.EventLeft); err != nil {
		return err
	}
	fmt.Println("after alice left, leader sees:", leader.Members())
	fmt.Println("bob's view:", bob.Members())
	return bob.Leave()
}

func joinMember(addr, user, leader, password string) (*member.Member, error) {
	conn, err := transport.DialTCP(addr)
	if err != nil {
		return nil, err
	}
	// Closing the connection ends a handshake that never completes.
	bound := time.AfterFunc(timeout, func() { conn.Close() })
	defer bound.Stop()
	m, err := member.Join(conn, user, leader, crypto.DeriveKey(user, leader, password))
	if err != nil {
		return nil, fmt.Errorf("join %s: %w", user, err)
	}
	fmt.Printf("%s joined\n", user)
	return m, nil
}

// waitKind drains events until one of the wanted kind arrives.
func waitKind(m *member.Member, kind member.EventKind) (member.Event, error) {
	deadline := time.After(timeout)
	for {
		select {
		case <-deadline:
			return member.Event{}, fmt.Errorf("%s: timeout waiting for %v", m.Name(), kind)
		default:
		}
		ev, ok := m.TryNext()
		if !ok {
			time.Sleep(time.Millisecond)
			continue
		}
		if ev.Kind == kind {
			return ev, nil
		}
	}
}

func waitEpochConvergence(leader *group.Leader, members ...*member.Member) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		converged := true
		for _, m := range members {
			if m.Epoch() != leader.Epoch() {
				converged = false
			}
		}
		if converged {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("epochs never converged")
}
