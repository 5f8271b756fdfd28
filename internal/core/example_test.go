package core_test

import (
	"fmt"

	"enclaves/internal/core"
	"enclaves/internal/crypto"
	"enclaves/internal/wire"
)

// Example drives the complete improved protocol at the engine level: the
// three-message join, one group-management exchange, and the close — with
// no network at all (the engines are sans-IO).
func Example() {
	longTerm := crypto.DeriveKey("alice", "leader", "alice's password")
	m, err := core.NewMemberSession("alice", "leader", longTerm)
	if err != nil {
		panic(err)
	}
	l, err := core.NewLeaderSession("leader", "alice", longTerm)
	if err != nil {
		panic(err)
	}

	// Join: AuthInitReq -> AuthKeyDist -> AuthAckKey.
	initReq, _ := m.Start()
	lev, _ := l.Handle(initReq)
	mev, _ := m.Handle(*lev.Reply)
	lev, _ = l.Handle(*mev.Reply)
	fmt.Println("member accepted:", lev.Accepted)

	// One group-management round: AdminMsg -> Ack.
	adminEnv, _ := l.Send(wire.Joined("bob"))
	mev, _ = m.Handle(*adminEnv)
	fmt.Println("admin delivered:", mev.Admin)
	lev, _ = l.Handle(*mev.Reply)
	fmt.Println("admin acknowledged:", lev.Acked)

	// A replay of the same AdminMsg is rejected by the nonce chain.
	if _, err := m.Handle(*adminEnv); err != nil {
		fmt.Println("replay rejected")
	}

	// Leave: ReqClose.
	closeEnv, _ := m.Leave()
	lev, _ = l.Handle(closeEnv)
	fmt.Println("session closed:", lev.Closed)

	// Output:
	// member accepted: true
	// admin delivered: MemberChanges[+bob]
	// admin acknowledged: true
	// replay rejected
	// session closed: true
}
