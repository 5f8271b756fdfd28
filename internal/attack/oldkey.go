package attack

import (
	"errors"
	"fmt"

	"enclaves/internal/core"
	"enclaves/internal/crypto"
	"enclaves/internal/wire"
)

// OldSessionKeyCompromise is attack A5: the paper requires that "the
// requirements must be satisfied even if old session keys are compromised
// and known to nontrustworthy agents" (Section 3.1). The scenario hands the
// attacker EVERYTHING from the victim's first session — every frame and the
// session key itself — and lets it attack the victim's second session with
// replays and fresh forgeries under the leaked key. The improved protocol
// must reject all of it.
//
// The scenario drives the sans-IO engines directly so the session-1 key can
// be exfiltrated before the engines zeroize it; this mirrors the model's
// Oops event, which publishes every closed session key to the intruder. No
// frame crosses a network, so the Medium goes unused.
func OldSessionKeyCompromise(Medium) (Outcome, error) {
	out := Outcome{ID: "A5", Name: "old-session-key compromise"}
	longTerm := crypto.DeriveKey(victimName, leaderName, "pw")

	// --- Session 1: complete join, one admin round, leave. The attacker
	// records every frame and steals the session key.
	var captured []wire.Envelope
	record := func(env wire.Envelope) wire.Envelope {
		captured = append(captured, env)
		return env
	}
	m1, l1, err := joinedPair(longTerm, record)
	if err != nil {
		return out, err
	}
	adminEnv, err := l1.Send(wire.Joined(evilName))
	if err != nil {
		return out, err
	}
	mev, err := m1.Handle(record(*adminEnv))
	if err != nil {
		return out, err
	}
	if _, err := l1.Handle(record(*mev.Reply)); err != nil {
		return out, err
	}
	leakedKey := m1.SessionKey() // exfiltrated BEFORE leave zeroizes it
	if !leakedKey.Valid() {
		return out, errors.New("no session key to leak")
	}
	closeEnv, err := m1.Leave()
	if err != nil {
		return out, err
	}
	if _, err := l1.Handle(record(closeEnv)); err != nil {
		return out, err
	}

	// --- Session 2: a fresh join by the same user.
	m2, l2, err := joinedPair(longTerm, func(env wire.Envelope) wire.Envelope { return env })
	if err != nil {
		return out, err
	}

	// --- The attack: replay the entire recorded session 1 into both
	// session-2 engines, then forge fresh frames under the leaked key.
	accepted := 0
	for _, env := range captured {
		if _, err := m2.Handle(env); err == nil {
			accepted++
		}
		if _, err := l2.Handle(env); err == nil {
			accepted++
		}
	}
	forgeries := []wire.Envelope{}
	adminForged := wire.Envelope{Type: wire.TypeAdminMsg, Sender: leaderName, Receiver: victimName}
	p, _ := wire.AdminMsgPayload{Leader: leaderName, User: victimName, Seq: 1, Body: wire.Left(evilName)}.Marshal()
	if box, err := crypto.SealPlaintext(leakedKey, p, adminForged.Header()); err == nil {
		adminForged.Payload = box
		forgeries = append(forgeries, adminForged)
	}
	closeForged := wire.Envelope{Type: wire.TypeReqClose, Sender: victimName, Receiver: leaderName}
	if box, err := crypto.Seal(leakedKey, wire.ClosePayload{User: victimName, Leader: leaderName}.Marshal(), closeForged.Header()); err == nil {
		closeForged.Payload = box
		forgeries = append(forgeries, closeForged)
	}
	for _, env := range forgeries {
		if _, err := m2.Handle(env); err == nil {
			accepted++
		}
		if _, err := l2.Handle(env); err == nil {
			accepted++
		}
	}

	// --- Verdict: nothing accepted AND session 2 still fully functional.
	sessionLive := true
	env, err := l2.Send(wire.Joined("bob"))
	if err != nil || env == nil {
		sessionLive = false
	} else {
		mev, err := m2.Handle(*env)
		if err != nil || mev.Admin == nil {
			sessionLive = false
		} else if _, err := l2.Handle(*mev.Reply); err != nil {
			sessionLive = false
		}
	}

	out.Succeeded = accepted > 0 || !sessionLive
	if out.Succeeded {
		out.Detail = fmt.Sprintf("%d hostile frames accepted; session live=%v", accepted, sessionLive)
	} else {
		out.Detail = fmt.Sprintf("all %d replays and %d forgeries under the leaked key rejected; session 2 unaffected",
			len(captured)*2, len(forgeries)*2)
	}
	return out, nil
}

// joinedPair runs the three-message join between fresh victim and leader
// engines, passing every frame through record on its way.
func joinedPair(longTerm crypto.Key, record func(wire.Envelope) wire.Envelope) (*core.MemberSession, *core.LeaderSession, error) {
	m, err := core.NewMemberSession(victimName, leaderName, longTerm)
	if err != nil {
		return nil, nil, err
	}
	l, err := core.NewLeaderSession(leaderName, victimName, longTerm)
	if err != nil {
		return nil, nil, err
	}
	initReq, err := m.Start()
	if err != nil {
		return nil, nil, err
	}
	lev, err := l.Handle(record(initReq))
	if err != nil {
		return nil, nil, err
	}
	mev, err := m.Handle(record(*lev.Reply))
	if err != nil {
		return nil, nil, err
	}
	_, err = l.Handle(record(*mev.Reply))
	return m, l, err
}
