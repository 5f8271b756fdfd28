package attack

import (
	"errors"
	"fmt"
	"slices"

	"enclaves/internal/crypto"
	"enclaves/internal/faultnet"
	"enclaves/internal/group"
	"enclaves/internal/member"
	"enclaves/internal/transport"
	"enclaves/internal/wire"
)

const (
	leaderName = "leader"
	victimName = "alice"
	evilName   = "eve"
)

// The retired wire types that carried the legacy protocol's plaintext
// connection_denied and req_close. The improved engines parse neither, so
// the scenarios inject them as unauthenticated junk.
const (
	retiredConnDenied wire.Type = 11
	retiredReqClose   wire.Type = 17
)

func userKeys(users ...string) map[string]crypto.Key {
	keys := make(map[string]crypto.Key, len(users))
	for _, u := range users {
		keys[u] = crypto.DeriveKey(u, leaderName, u+"-pw")
	}
	return keys
}

func keyOf(user string) crypto.Key {
	return crypto.DeriveKey(user, leaderName, user+"-pw")
}

// bench is one scenario's stage: a leader serving a medium's listener, the
// dialer that reaches it, and the victim's connection with the adversary in
// front — link is what the victim uses, and every frame it exchanges
// crosses it.
type bench struct {
	leader *group.Leader
	list   transport.Listener
	dial   func() (transport.Conn, error)
	link   *faultnet.Link
}

func improvedBench(net Medium, users ...string) (*bench, error) {
	g, err := group.NewLeader(group.Config{
		Name:  leaderName,
		Users: userKeys(users...),
		Rekey: group.RekeyPolicy{OnLeave: true},
	})
	if err != nil {
		return nil, err
	}
	l, dial, err := net()
	if err != nil {
		g.Close()
		return nil, err
	}
	go func() { _ = g.Serve(l) }()
	b := &bench{leader: g, list: l, dial: func() (transport.Conn, error) { return dial(l.Addr()) }}
	c, err := b.dial()
	if err != nil {
		b.close()
		return nil, err
	}
	b.link = faultnet.Wrap(c, faultnet.Plan{})
	return b, nil
}

// joinInsider dials the leader on a connection of its own, which the
// adversary leaves alone, and joins as eve with her legitimate password.
func (b *bench) joinInsider() (*member.Member, error) {
	c, err := b.dial()
	if err != nil {
		return nil, err
	}
	return member.Join(c, evilName, leaderName, keyOf(evilName))
}

func (b *bench) close() {
	if b.link != nil {
		b.link.Close()
	}
	b.leader.Close()
	b.list.Close()
}

// --- A1: forged connection_denied -------------------------------------------

// ForgedDenialImproved repeats the attack against the improved protocol:
// the pre-authentication exchange no longer exists, so there is nothing
// unauthenticated to forge; injected junk is ignored and the join completes.
func ForgedDenialImproved(net Medium) (Outcome, error) {
	out := Outcome{ID: "A1", Name: "forged connection_denied (DoS)"}
	b, err := improvedBench(net, victimName)
	if err != nil {
		return out, err
	}
	defer b.close()

	// The attacker injects both a legacy-style denial and a garbage
	// AuthKeyDist before the genuine reply can arrive.
	denial := wire.Envelope{Type: retiredConnDenied, Sender: leaderName, Receiver: victimName,
		Payload: []byte(leaderName)}
	garbage := wire.Envelope{Type: wire.TypeAuthKeyDist, Sender: leaderName, Receiver: victimName,
		Payload: []byte("not a ciphertext")}
	if err := b.link.Inject(faultnet.Inbound, denial); err != nil {
		return out, err
	}
	if err := b.link.Inject(faultnet.Inbound, garbage); err != nil {
		return out, err
	}

	m, joinErr := member.Join(b.link, victimName, leaderName, keyOf(victimName))
	if joinErr != nil {
		out.Succeeded = true
		out.Detail = fmt.Sprintf("join blocked: %v", joinErr)
		return out, nil
	}
	defer m.Leave()
	out.Succeeded = false
	out.Detail = "injected junk ignored; victim joined normally"
	return out, nil
}

// --- A2: insider forges mem_removed ------------------------------------------

// MembershipForgeryImproved repeats the forgery against the improved
// protocol: membership changes travel as AdminMsg under the victim's
// per-member session key, which the insider does not hold. Knowing the
// group key no longer helps.
func MembershipForgeryImproved(net Medium) (Outcome, error) {
	out := Outcome{ID: "A2", Name: "insider forges mem_removed"}
	b, err := improvedBench(net, victimName, evilName)
	if err != nil {
		return out, err
	}
	defer b.close()

	victim, err := member.Join(b.link, victimName, leaderName, keyOf(victimName))
	if err != nil {
		return out, err
	}
	defer victim.Leave()
	evil, err := b.joinInsider()
	if err != nil {
		return out, err
	}
	defer evil.Leave()
	if !waitUntil(settle, func() bool {
		return slices.Contains(victim.Members(), evilName) && victim.Epoch() == evil.Epoch() && victim.Epoch() > 0
	}) {
		return out, errors.New("group never converged")
	}

	// Attempt 1: AdminMsg-shaped forgery under the (leaked) group key.
	kg, _ := evil.GroupKey()
	forged := wire.Envelope{Type: wire.TypeAdminMsg, Sender: leaderName, Receiver: victimName}
	p, _ := wire.AdminMsgPayload{Leader: leaderName, User: victimName, Seq: 99, Body: wire.Left(evilName)}.Marshal()
	box, err := crypto.SealPlaintext(kg, p, forged.Header())
	if err != nil {
		return out, err
	}
	forged.Payload = box
	if err := b.link.Inject(faultnet.Inbound, forged); err != nil {
		return out, err
	}
	// Attempt 2: replay the leader's own earlier AdminMsg frames.
	if _, err := b.link.ReplayMatching(func(c faultnet.Captured) bool {
		return c.Dir == faultnet.Inbound && c.Env.Type == wire.TypeAdminMsg
	}); err != nil {
		return out, err
	}

	rejected := waitUntil(settle, func() bool { return victim.Rejected() > 0 })
	dropped := !slices.Contains(victim.Members(), evilName)
	out.Succeeded = dropped
	if dropped {
		out.Detail = "victim's view corrupted"
	} else {
		out.Detail = fmt.Sprintf("view intact; %d forgeries rejected (observed=%v)", victim.Rejected(), rejected)
	}
	return out, nil
}

// --- A3: new_key replay / group-key rollback ---------------------------------

// KeyRollbackImproved repeats the replay against the improved protocol: key
// distribution rides the AdminMsg exchange whose freshness is proven by the
// victim's own latest nonce, so every replayed frame is rejected.
func KeyRollbackImproved(net Medium) (Outcome, error) {
	out := Outcome{ID: "A3", Name: "new_key replay (key rollback)"}
	b, err := improvedBench(net, victimName, evilName)
	if err != nil {
		return out, err
	}
	defer b.close()

	victim, err := member.Join(b.link, victimName, leaderName, keyOf(victimName))
	if err != nil {
		return out, err
	}
	defer victim.Leave()
	if _, err := b.joinInsider(); err != nil {
		return out, err
	}
	if !waitUntil(settle, func() bool { return len(b.leader.Members()) == 2 }) {
		return out, errors.New("members never registered")
	}
	if err := b.leader.Rekey(); err != nil {
		return out, err
	}
	epoch2 := b.leader.Epoch()
	if !waitUntil(settle, func() bool { return victim.Epoch() == epoch2 }) {
		return out, errors.New("rekey never propagated")
	}

	if err := b.leader.Expel(evilName); err != nil {
		return out, err
	}
	epoch3 := b.leader.Epoch()
	if epoch3 <= epoch2 {
		return out, errors.New("no rekey after expel")
	}
	if !waitUntil(settle, func() bool { return victim.Epoch() == epoch3 }) {
		return out, errors.New("post-expel rekey never propagated")
	}

	// Replay every AdminMsg the leader ever sent to the victim — including
	// the epoch-2 key distribution.
	n, err := b.link.ReplayMatching(func(c faultnet.Captured) bool {
		return c.Dir == faultnet.Inbound && c.Env.Type == wire.TypeAdminMsg
	})
	if err != nil {
		return out, err
	}
	if n == 0 {
		return out, errors.New("no AdminMsg frames captured")
	}

	waitUntil(settle, func() bool { return victim.Rejected() >= uint64(n) })
	out.Succeeded = victim.Epoch() != epoch3
	if out.Succeeded {
		out.Detail = fmt.Sprintf("victim regressed to epoch %d", victim.Epoch())
	} else {
		out.Detail = fmt.Sprintf("all %d replays rejected; victim stays on epoch %d", n, epoch3)
	}
	return out, nil
}

// --- A4: forged close / forced disconnect ------------------------------------

// ForcedDisconnectImproved repeats the forgery against the improved
// protocol: ReqClose is {A, L}_Ka, and the attacker does not hold the
// session key, so the leader rejects the forgery and the session survives.
func ForcedDisconnectImproved(net Medium) (Outcome, error) {
	out := Outcome{ID: "A4", Name: "forged close (forced disconnect)"}
	b, err := improvedBench(net, victimName)
	if err != nil {
		return out, err
	}
	defer b.close()

	victim, err := member.Join(b.link, victimName, leaderName, keyOf(victimName))
	if err != nil {
		return out, err
	}
	defer victim.Leave()
	if !waitUntil(settle, func() bool { return slices.Contains(b.leader.Members(), victimName) && victim.Epoch() > 0 }) {
		return out, errors.New("victim never registered")
	}

	// Forge a ReqClose under a key the attacker invents, plus a replayed
	// legacy-style plaintext close for good measure.
	evilKey, err := crypto.NewKey()
	if err != nil {
		return out, err
	}
	forged := wire.Envelope{Type: wire.TypeReqClose, Sender: victimName, Receiver: leaderName}
	box, err := crypto.Seal(evilKey, wire.ClosePayload{User: victimName, Leader: leaderName}.Marshal(), forged.Header())
	if err != nil {
		return out, err
	}
	forged.Payload = box
	if err := b.link.Inject(faultnet.Outbound, forged); err != nil {
		return out, err
	}
	plaintext := wire.Envelope{Type: retiredReqClose, Sender: victimName, Receiver: leaderName,
		Payload: []byte(victimName)}
	if err := b.link.Inject(faultnet.Outbound, plaintext); err != nil {
		return out, err
	}

	// Prove the session is still alive end to end: a rekey must reach the
	// victim after the forgeries.
	epochBefore := victim.Epoch()
	if err := b.leader.Rekey(); err != nil {
		return out, err
	}
	alive := waitUntil(settle, func() bool { return victim.Epoch() > epochBefore })
	stillMember := slices.Contains(b.leader.Members(), victimName)
	out.Succeeded = !(alive && stillMember)
	if out.Succeeded {
		out.Detail = fmt.Sprintf("session damaged (alive=%v member=%v)", alive, stillMember)
	} else {
		out.Detail = "forgeries rejected; session fully live afterwards"
	}
	return out, nil
}
