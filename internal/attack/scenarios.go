package attack

import (
	"errors"
	"fmt"
	"slices"

	"enclaves/internal/crypto"
	"enclaves/internal/faultnet"
	"enclaves/internal/group"
	"enclaves/internal/legacy"
	"enclaves/internal/member"
	"enclaves/internal/transport"
	"enclaves/internal/wire"
)

const (
	leaderName = "leader"
	victimName = "alice"
	evilName   = "eve"
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

// bench is one scenario's stage: a leader of either protocol serving a
// medium's listener, the dialer that reaches it, and the victim's connection
// with the adversary in front — link is what the victim uses, and every
// frame it exchanges crosses it.
type bench[L leader] struct {
	leader L
	list   transport.Listener
	dial   func() (transport.Conn, error)
	link   *faultnet.Link
}

type leader interface {
	Serve(transport.Listener) error
	Close()
}

func legacyBench(net Medium, users ...string) (*bench[*legacy.Leader], error) {
	g, err := legacy.NewLeader(legacy.LeaderConfig{
		Name:         leaderName,
		Users:        userKeys(users...),
		RekeyOnLeave: true,
	})
	if err != nil {
		return nil, err
	}
	return serve(net, g)
}

func improvedBench(net Medium, users ...string) (*bench[*group.Leader], error) {
	g, err := group.NewLeader(group.Config{
		Name:  leaderName,
		Users: userKeys(users...),
		Rekey: group.RekeyPolicy{OnLeave: true},
	})
	if err != nil {
		return nil, err
	}
	return serve(net, g)
}

func serve[L leader](net Medium, g L) (*bench[L], error) {
	l, dial, err := net()
	if err != nil {
		g.Close()
		return nil, err
	}
	go func() { _ = g.Serve(l) }()
	b := &bench[L]{leader: g, list: l, dial: func() (transport.Conn, error) { return dial(l.Addr()) }}
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
func joinInsider[M any](dial func() (transport.Conn, error), join func(transport.Conn, string, string, crypto.Key) (M, error)) (M, error) {
	c, err := dial()
	if err != nil {
		var none M
		return none, err
	}
	return join(c, evilName, leaderName, keyOf(evilName))
}

func (b *bench[L]) close() {
	if b.link != nil {
		b.link.Close()
	}
	b.leader.Close()
	b.list.Close()
}

// --- A1: forged connection_denied -------------------------------------------

// ForgedDenialLegacy forges the plaintext connection_denied of the legacy
// pre-authentication exchange; the victim gives up although the leader
// would have accepted it (Section 2.3, first attack).
func ForgedDenialLegacy(net Medium) (Outcome, error) {
	out := Outcome{ID: "A1", Name: "forged connection_denied (DoS)", Protocol: "legacy", Expected: true}
	b, err := legacyBench(net, victimName)
	if err != nil {
		return out, err
	}
	defer b.close()

	// Suppress the genuine ack_open and pre-inject the forged denial.
	b.link.SetFilter(func(d faultnet.Direction, e wire.Envelope) bool {
		return !(d == faultnet.Inbound && e.Type == wire.TypeAckOpen)
	})
	denial := wire.Envelope{Type: wire.TypeConnDenied, Sender: leaderName, Receiver: victimName,
		Payload: wire.LegacyOpenPayload{From: leaderName}.Marshal()}
	if err := b.link.Inject(faultnet.Inbound, denial); err != nil {
		return out, err
	}

	_, joinErr := legacy.Join(b.link, victimName, leaderName, keyOf(victimName))
	out.Succeeded = errors.Is(joinErr, legacy.ErrDenied)
	if out.Succeeded {
		out.Detail = "victim believed the forged denial and gave up"
	} else {
		out.Detail = fmt.Sprintf("victim not denied (err=%v)", joinErr)
	}
	return out, nil
}

// ForgedDenialImproved repeats the attack against the improved protocol:
// the pre-authentication exchange no longer exists, so there is nothing
// unauthenticated to forge; injected junk is ignored and the join completes.
func ForgedDenialImproved(net Medium) (Outcome, error) {
	out := Outcome{ID: "A1", Name: "forged connection_denied (DoS)", Protocol: "improved", Expected: false}
	b, err := improvedBench(net, victimName)
	if err != nil {
		return out, err
	}
	defer b.close()

	// The attacker injects both a legacy-style denial and a garbage
	// AuthKeyDist before the genuine reply can arrive.
	denial := wire.Envelope{Type: wire.TypeConnDenied, Sender: leaderName, Receiver: victimName,
		Payload: wire.LegacyOpenPayload{From: leaderName}.Marshal()}
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

// MembershipForgeryLegacy has the insider eve forge mem_removed({eve})
// under the shared group key, convincing the victim that eve has left while
// the leader still counts her as a member (Section 2.3, second attack).
func MembershipForgeryLegacy(net Medium) (Outcome, error) {
	out := Outcome{ID: "A2", Name: "insider forges mem_removed", Protocol: "legacy", Expected: true}
	b, err := legacyBench(net, victimName, evilName)
	if err != nil {
		return out, err
	}
	defer b.close()

	victim, err := legacy.Join(b.link, victimName, leaderName, keyOf(victimName))
	if err != nil {
		return out, err
	}
	evil, err := joinInsider(b.dial, legacy.Join)
	if err != nil {
		return out, err
	}
	if !waitUntil(settle, func() bool { return slices.Contains(victim.Members(), evilName) }) {
		return out, errors.New("victim never saw the insider join")
	}

	// Eve seals the forgery with the group key she legitimately holds.
	kg, _ := evil.GroupKey()
	forged := wire.Envelope{Type: wire.TypeMemRemoved, Sender: leaderName, Receiver: victimName}
	p := wire.LegacyMemberPayload{Name: evilName}
	box, err := crypto.Seal(kg, p.Marshal(), forged.Header())
	if err != nil {
		return out, err
	}
	forged.Payload = box
	if err := b.link.Inject(faultnet.Inbound, forged); err != nil {
		return out, err
	}

	dropped := waitUntil(settle, func() bool { return !slices.Contains(victim.Members(), evilName) })
	stillMember := slices.Contains(b.leader.Members(), evilName)
	out.Succeeded = dropped && stillMember
	if out.Succeeded {
		out.Detail = "victim's view dropped the insider; leader still lists her"
	} else {
		out.Detail = fmt.Sprintf("dropped=%v leaderStillHasEve=%v", dropped, stillMember)
	}
	return out, nil
}

// MembershipForgeryImproved repeats the forgery against the improved
// protocol: membership changes travel as AdminMsg under the victim's
// per-member session key, which the insider does not hold. Knowing the
// group key no longer helps.
func MembershipForgeryImproved(net Medium) (Outcome, error) {
	out := Outcome{ID: "A2", Name: "insider forges mem_removed", Protocol: "improved", Expected: false}
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
	evil, err := joinInsider(b.dial, member.Join)
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
	p := wire.AdminMsgPayload{Leader: leaderName, User: victimName, Seq: 99, Body: wire.MemberLeft{Name: evilName}}
	box, err := crypto.Seal(kg, p.Marshal(), forged.Header())
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

// KeyRollbackLegacy replays an old new_key message after the insider was
// expelled, rolling the victim back to a group key the expelled member
// still holds (Section 2.3, third attack).
func KeyRollbackLegacy(net Medium) (Outcome, error) {
	out := Outcome{ID: "A3", Name: "new_key replay (key rollback)", Protocol: "legacy", Expected: true}
	b, err := legacyBench(net, victimName, evilName)
	if err != nil {
		return out, err
	}
	defer b.close()

	victim, err := legacy.Join(b.link, victimName, leaderName, keyOf(victimName))
	if err != nil {
		return out, err
	}
	evil, err := joinInsider(b.dial, legacy.Join)
	if err != nil {
		return out, err
	}
	if !waitUntil(settle, func() bool { return len(b.leader.Members()) == 2 }) {
		return out, errors.New("members never registered")
	}

	// Rekey while eve is a member: she legitimately receives epoch 2.
	if err := b.leader.Rekey(); err != nil {
		return out, err
	}
	if !waitUntil(settle, func() bool { return victim.Epoch() == 2 && evil.Epoch() == 2 }) {
		return out, errors.New("epoch 2 never propagated")
	}
	leakedKey, _ := evil.GroupKey() // eve keeps this key after expulsion

	// Expel eve; the on-leave policy rekeys to epoch 3.
	if err := b.leader.Expel(evilName); err != nil {
		return out, err
	}
	if !waitUntil(settle, func() bool { return victim.Epoch() == 3 }) {
		return out, errors.New("epoch 3 never propagated")
	}

	// Replay the captured epoch-2 new_key (the first NewKey toward alice).
	replayed := false
	for i, c := range b.link.Captured() {
		if c.Dir == faultnet.Inbound && c.Env.Type == wire.TypeNewKey {
			if err := b.link.Replay(i); err != nil {
				return out, err
			}
			replayed = true
			break
		}
	}
	if !replayed {
		return out, errors.New("no new_key frame captured")
	}

	rolled := waitUntil(settle, func() bool { return victim.Epoch() == 2 && victim.MaxEpoch() == 3 })
	vk, _ := victim.GroupKey()
	out.Succeeded = rolled && vk.Equal(leakedKey)
	if out.Succeeded {
		out.Detail = "victim rolled back to the expelled member's key"
	} else {
		out.Detail = fmt.Sprintf("rolled=%v keyMatchesLeak=%v (epoch=%d/max=%d)",
			rolled, vk.Equal(leakedKey), victim.Epoch(), victim.MaxEpoch())
	}
	return out, nil
}

// KeyRollbackImproved repeats the replay against the improved protocol: key
// distribution rides the AdminMsg exchange whose freshness is proven by the
// victim's own latest nonce, so every replayed frame is rejected.
func KeyRollbackImproved(net Medium) (Outcome, error) {
	out := Outcome{ID: "A3", Name: "new_key replay (key rollback)", Protocol: "improved", Expected: false}
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
	if _, err := joinInsider(b.dial, member.Join); err != nil {
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

// ForcedDisconnectLegacy forges the PLAINTEXT req_close of the legacy
// protocol; the leader closes the victim's session although the victim
// never asked to leave.
func ForcedDisconnectLegacy(net Medium) (Outcome, error) {
	out := Outcome{ID: "A4", Name: "forged close (forced disconnect)", Protocol: "legacy", Expected: true}
	b, err := legacyBench(net, victimName)
	if err != nil {
		return out, err
	}
	defer b.close()

	if _, err := legacy.Join(b.link, victimName, leaderName, keyOf(victimName)); err != nil {
		return out, err
	}
	if !waitUntil(settle, func() bool { return slices.Contains(b.leader.Members(), victimName) }) {
		return out, errors.New("victim never registered")
	}

	forged := wire.Envelope{Type: wire.TypeLegacyReqClose, Sender: victimName, Receiver: leaderName,
		Payload: wire.LegacyOpenPayload{From: victimName}.Marshal()}
	if err := b.link.Inject(faultnet.Outbound, forged); err != nil {
		return out, err
	}

	out.Succeeded = waitUntil(settle, func() bool { return !slices.Contains(b.leader.Members(), victimName) })
	if out.Succeeded {
		out.Detail = "leader closed the session on a forged plaintext req_close"
	} else {
		out.Detail = "leader kept the session"
	}
	return out, nil
}

// ForcedDisconnectImproved repeats the forgery against the improved
// protocol: ReqClose is {A, L}_Ka, and the attacker does not hold the
// session key, so the leader rejects the forgery and the session survives.
func ForcedDisconnectImproved(net Medium) (Outcome, error) {
	out := Outcome{ID: "A4", Name: "forged close (forced disconnect)", Protocol: "improved", Expected: false}
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
	plaintext := wire.Envelope{Type: wire.TypeLegacyReqClose, Sender: victimName, Receiver: leaderName,
		Payload: wire.LegacyOpenPayload{From: victimName}.Marshal()}
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
