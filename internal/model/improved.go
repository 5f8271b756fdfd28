package model

import (
	"fmt"
	"slices"
	"strings"

	"enclaves/internal/symbolic"
)

// Step is one transition of the global model: an agent (A, L, or the
// intruder E) fires, possibly consuming a message from the trace and
// possibly adding one (constraint (1) of Section 4.2). Pure receive
// transitions (e.g. L accepting an Ack) add nothing.
type Step struct {
	Actor    string          // AgentUser, AgentLeader, or AgentIntruder
	Action   string          // human-readable description for counterexamples
	Consumed *symbolic.Field // content consumed by a receive guard, or nil
	Emitted  *Msg            // message added to the trace, or nil
	Next     *State
}

func (st Step) String() string {
	s := st.Actor + ": " + st.Action
	if st.Consumed != nil {
		s += fmt.Sprintf(" [consumes %s]", st.Consumed)
	}
	if st.Emitted != nil {
		s += fmt.Sprintf(" [emits %s]", st.Emitted)
	}
	return s
}

// System is the improved-protocol model of Section 4: the asynchronous
// composition of the honest user A (Figure 2), the leader L (Figure 3), and
// the Dolev-Yao intruder, bounded by cfg.
type System struct {
	cfg Config
	pa  *symbolic.Field // A's long-term key P_a
	kr  *symbolic.Field // replication key K_r (failover extension)
	ks  *symbolic.Field // subtree key K_s (LKH extension)
	a   *symbolic.Field
	l   *symbolic.Field
}

// NewSystem returns the improved-protocol model bounded by cfg.
func NewSystem(cfg Config) *System {
	if cfg.Failover && cfg.MaxFailovers == 0 {
		cfg.MaxFailovers = 1
	}
	return &System{
		cfg: cfg,
		pa:  symbolic.LongTermKey(AgentUser),
		kr:  symbolic.LongTermKey(AgentStandby),
		ks:  symbolic.LongTermKey(AgentTree),
		a:   symbolic.Agent(AgentUser),
		l:   symbolic.Agent(AgentLeader),
	}
}

// Config returns the exploration bounds.
func (sys *System) Config() Config { return sys.cfg }

// LongTermKey returns P_a, the long-term key shared by A and L.
func (sys *System) LongTermKey() *symbolic.Field { return sys.pa }

// ReplKey returns K_r, the replication key shared by the primary and the
// standby (failover extension). Like P_a it is pre-shared out of band and
// must never occur in the trace.
func (sys *System) ReplKey() *symbolic.Field { return sys.kr }

// SubtreeKey returns K_s, the LKH extension's stand-in for the interior
// subtree keys that current members share: the faithful rotation seals the
// new tree key under it (the runtime seals under the rotated node's
// children's current keys — keys departed members do not hold). Like P_a
// and K_r it must never occur in the trace.
func (sys *System) SubtreeKey() *symbolic.Field { return sys.ks }

// Initial returns the initial global state q0.
func (sys *System) Initial() *State { return NewInitialState() }

// Successors enumerates every enabled transition from s: the spontaneous and
// message-triggered moves of A and L, and the intruder injections that could
// trigger an honest guard. Injecting messages no honest guard can consume is
// sound to omit for safety checking: such messages are already in Synth(IK)
// and remain available later (knowledge is monotone), and the secrecy
// invariants are checked symbolically against IK itself.
func (sys *System) Successors(s *State) []Step {
	var steps []Step
	steps = append(steps, sys.userSteps(s)...)
	steps = append(steps, sys.leaderSteps(s)...)
	steps = append(steps, sys.eSteps(s)...)
	steps = append(steps, sys.intruderSteps(s)...)
	return steps
}

// --- honest user A (Figure 2) ---

func (sys *System) userSteps(s *State) []Step {
	var steps []Step
	switch s.Usr.Phase {
	case UserNotConnected:
		if s.Sessions < sys.cfg.MaxSessions {
			steps = append(steps, sys.userJoin(s))
		}
	case UserWaitingForKey:
		steps = append(steps, sys.userRecvKeyDist(s)...)
	case UserConnected:
		steps = append(steps, sys.userRecvAdmin(s)...)
		steps = append(steps, sys.userLeave(s))
		if sys.cfg.Failover && s.ResumesStarted < s.Failovers {
			steps = append(steps, sys.userStartResume(s))
		}
	case UserResuming:
		steps = append(steps, sys.userRecvResumeAck(s)...)
	}
	return steps
}

// userJoin: NotConnected -> WaitingForKey(Na); A sends
// AuthInitReq, A, L, {A, L, Na}_Pa with fresh Na.
func (sys *System) userJoin(s *State) Step {
	n := s.Clone()
	na := n.freshNonce()
	m := Msg{
		Label:    LabelAuthInitReq,
		Sender:   AgentUser,
		Receiver: AgentLeader,
		Content:  symbolic.Enc(symbolic.Tuple(sys.a, sys.l, na), sys.pa),
	}
	n.record(m)
	n.Usr = UserState{Phase: UserWaitingForKey, Na: na}
	n.Sessions++
	n.ReqA++
	return Step{Actor: AgentUser, Action: "join: send AuthInitReq", Emitted: &m, Next: n}
}

// userRecvKeyDist: WaitingForKey(Na) -> Connected(Na', K) on reception of
// a content {L, A, Na, N, K}_Pa; A replies AuthAckKey with {A, L, N, Na'}_K
// where Na' is fresh.
func (sys *System) userRecvKeyDist(s *State) []Step {
	var steps []Step
	for _, c := range netEncs(s, sys.pa, 5) {
		comps := c.Body().Components()
		if !comps[0].Equal(sys.l) || !comps[1].Equal(sys.a) || !comps[2].Equal(s.Usr.Na) {
			continue
		}
		nl, ka := comps[3], comps[4]
		if nl.Kind() != symbolic.KindNonce || ka.Kind() != symbolic.KindKey {
			continue
		}
		n := s.Clone()
		na2 := n.freshNonce()
		m := Msg{
			Label:    LabelAuthAckKey,
			Sender:   AgentUser,
			Receiver: AgentLeader,
			Content:  symbolic.Enc(symbolic.Tuple(sys.a, sys.l, nl, na2), ka),
		}
		n.record(m)
		n.Usr = UserState{Phase: UserConnected, Na: na2, Ka: ka}
		steps = append(steps, Step{
			Actor: AgentUser, Action: "accept AuthKeyDist, send AuthAckKey",
			Consumed: c, Emitted: &m, Next: n,
		})
	}
	return steps
}

// userRecvAdmin: Connected(Na, Ka) -> Connected(Na', Ka) on reception of a
// content {L, A, Na, N, X}_Ka; A appends X to rcv_A and replies Ack with
// {A, L, N, Na'}_Ka, Na' fresh.
func (sys *System) userRecvAdmin(s *State) []Step {
	var steps []Step
	// Bound the acceptances so broken variants (WeakAdminFreshness) keep a
	// finite state space: two acceptances beyond the leader's own bound
	// are enough to exhibit any duplication or reordering violation. The
	// faithful protocol never reaches this cap (rcv_A ≤ snd_A ≤ MaxAdmin).
	if len(s.RcvA) >= sys.cfg.MaxAdmin+2 {
		return nil
	}
	for _, c := range netEncs(s, s.Usr.Ka, 5) {
		comps := c.Body().Components()
		if !comps[0].Equal(sys.l) || !comps[1].Equal(sys.a) {
			continue
		}
		// The freshness guard that defeats replays. The WeakAdminFreshness
		// mutation drops it, and the checker's sensitivity tests prove the
		// prefix property collapses without it.
		if !sys.cfg.WeakAdminFreshness && !comps[2].Equal(s.Usr.Na) {
			continue
		}
		nl, x := comps[3], comps[4]
		if nl.Kind() != symbolic.KindNonce || x.Kind() != symbolic.KindData {
			continue
		}
		n := s.Clone()
		na2 := n.freshNonce()
		m := Msg{
			Label:    LabelAck,
			Sender:   AgentUser,
			Receiver: AgentLeader,
			Content:  symbolic.Enc(symbolic.Tuple(sys.a, sys.l, nl, na2), s.Usr.Ka),
		}
		n.record(m)
		n.RcvA = append(n.RcvA, x)
		n.Usr = UserState{Phase: UserConnected, Na: na2, Ka: s.Usr.Ka}
		steps = append(steps, Step{
			Actor: AgentUser, Action: fmt.Sprintf("accept AdminMsg %s, send Ack", x),
			Consumed: c, Emitted: &m, Next: n,
		})
	}
	return steps
}

// userLeave: Connected(Na, Ka) -> NotConnected; A sends
// ReqClose, A, L, {A, L}_Ka and empties rcv_A.
func (sys *System) userLeave(s *State) Step {
	n := s.Clone()
	m := Msg{
		Label:    LabelReqClose,
		Sender:   AgentUser,
		Receiver: AgentLeader,
		Content:  symbolic.Enc(symbolic.Pair(sys.a, sys.l), s.Usr.Ka),
	}
	n.record(m)
	n.Usr = UserState{Phase: UserNotConnected}
	n.RcvA = nil
	return Step{Actor: AgentUser, Action: "leave: send ReqClose", Emitted: &m, Next: n}
}

// userStartResume (failover extension): Connected(Na, Ka) -> Resuming(Nf, Ka)
// after a primary crash; A sends Resume with {A, L, Na, Nf}_Ka — the last
// chained nonce Na proves the session to the promoted standby, the fresh Nf
// is the nonce A expects echoed in the ResumeAck. The content shape is that
// of an Ack; the nonce discipline keeps the two apart (in the runtime the
// AEAD additional data also binds the envelope type).
func (sys *System) userStartResume(s *State) Step {
	n := s.Clone()
	nf := n.freshNonce()
	m := Msg{
		Label:    LabelResume,
		Sender:   AgentUser,
		Receiver: AgentLeader,
		Content:  symbolic.Enc(symbolic.Tuple(sys.a, sys.l, s.Usr.Na, nf), s.Usr.Ka),
	}
	n.record(m)
	n.Usr = UserState{Phase: UserResuming, Na: nf, Ka: s.Usr.Ka}
	n.ResumesStarted++
	return Step{Actor: AgentUser, Action: "detect primary silence, send Resume", Emitted: &m, Next: n}
}

// userRecvResumeAck (failover extension): Resuming(Nf, Ka) -> Connected(Na',
// Ka) on reception of {L, A, Nf, N, X}_Ka — the AdminMsg shape, carrying the
// promoted leader's post-promotion payload X (the runtime's forced rekey).
// X joins rcv_A like any group-management payload, so the 5.4a prefix
// property spans the failover. A replies Ack with {A, L, N, Na'}_Ka.
func (sys *System) userRecvResumeAck(s *State) []Step {
	var steps []Step
	if len(s.RcvA) >= sys.cfg.MaxAdmin+2 {
		return nil
	}
	for _, c := range netEncs(s, s.Usr.Ka, 5) {
		comps := c.Body().Components()
		if !comps[0].Equal(sys.l) || !comps[1].Equal(sys.a) {
			continue
		}
		// The echoed-nonce guard: without it (WeakResumeFreshness) a
		// pre-failover AdminMsg replay is indistinguishable from the
		// ResumeAck and gets re-accepted.
		if !sys.cfg.WeakResumeFreshness && !comps[2].Equal(s.Usr.Na) {
			continue
		}
		nl, x := comps[3], comps[4]
		if nl.Kind() != symbolic.KindNonce || x.Kind() != symbolic.KindData {
			continue
		}
		n := s.Clone()
		na2 := n.freshNonce()
		m := Msg{
			Label:    LabelAck,
			Sender:   AgentUser,
			Receiver: AgentLeader,
			Content:  symbolic.Enc(symbolic.Tuple(sys.a, sys.l, nl, na2), s.Usr.Ka),
		}
		n.record(m)
		n.RcvA = append(n.RcvA, x)
		n.Usr = UserState{Phase: UserConnected, Na: na2, Ka: s.Usr.Ka}
		steps = append(steps, Step{
			Actor: AgentUser, Action: fmt.Sprintf("accept ResumeAck %s, send Ack", x),
			Consumed: c, Emitted: &m, Next: n,
		})
	}
	return steps
}

// --- leader L (Figure 3) ---

func (sys *System) leaderSteps(s *State) []Step {
	var steps []Step
	switch s.Lead.Phase {
	case LeadNotConnected:
		steps = append(steps, sys.leaderRecvInitReq(s)...)
	case LeadWaitingForKeyAck:
		steps = append(steps, sys.leaderRecvKeyAck(s)...)
	case LeadConnected:
		if s.AdminSent < sys.cfg.MaxAdmin {
			steps = append(steps, sys.leaderSendAdmin(s))
		}
		if sys.cfg.Failover && s.Failovers < sys.cfg.MaxFailovers {
			steps = append(steps, sys.leaderCrashPromote(s))
		}
		// LKH extension: deliver the member's path keys once per session,
		// but never from a dirty tree — a departure-triggered rotation
		// must complete before any new delivery (the runtime's rotation is
		// synchronous with the departure, before further fan-out).
		if sys.cfg.LKH && !s.TKSent && !s.TKDirty {
			steps = append(steps, sys.leaderSendPathKeys(s))
		}
	case LeadWaitingForAck:
		steps = append(steps, sys.leaderRecvAck(s)...)
	case LeadPromoted:
		steps = append(steps, sys.leaderRecvResume(s)...)
	}
	if s.Lead.Phase != LeadNotConnected {
		steps = append(steps, sys.leaderRecvReqClose(s)...)
	}
	// LKH extension: a dirty tree is rotated regardless of the session
	// phase — departures leave the leader NotConnected, promotions leave it
	// Promoted, and the rotation must not wait for either to change.
	if sys.cfg.LKH && s.TKDirty {
		steps = append(steps, sys.leaderRotateTreeKey(s))
	}
	return steps
}

// leaderSendPathKeys (LKH extension): the leader delivers the member's
// leaf-to-root path keys — abstracted to the path's root TK, which IS the
// group key — sealed under the session key, once per connected session.
// The first delivery allocates the tree key.
func (sys *System) leaderSendPathKeys(s *State) Step {
	n := s.Clone()
	if n.TK == nil {
		n.TK = n.freshKey()
	}
	m := Msg{
		Label:    LabelPathKeys,
		Sender:   AgentLeader,
		Receiver: AgentUser,
		Content:  symbolic.Enc(symbolic.Tuple(sys.l, sys.a, n.TK), s.Lead.Ka),
	}
	n.record(m)
	n.TKSent = true
	return Step{Actor: AgentLeader, Action: "deliver LKH path keys", Emitted: &m, Next: n}
}

// leaderRotateTreeKey (LKH extension): the leader replaces the tree key
// with a fresh TK', broadcasting it sealed under the subtree key K_s that
// only CURRENT members hold — the departed member (who knows the old TK via
// its Oops) cannot open the update, which is exactly the forward-secrecy
// obligation 5.6. The WeakLKHRotation mutation seals TK' under the old TK
// instead, handing every future tree key to the departed member. The
// rotation clears TKSent: connected members are re-keyed by a fresh
// PathKeys delivery (post-promotion, via the resumed session).
func (sys *System) leaderRotateTreeKey(s *State) Step {
	n := s.Clone()
	tk2 := n.freshKey()
	under, how := sys.ks, "under K_s"
	if sys.cfg.WeakLKHRotation {
		under, how = s.TK, "under old TK (weak)"
	}
	m := Msg{
		Label:    LabelKeyUpdate,
		Sender:   AgentLeader,
		Receiver: "*",
		Content:  symbolic.Enc(symbolic.Pair(sys.l, tk2), under),
	}
	n.record(m)
	n.TK = tk2
	n.TKDirty = false
	n.TKSent = false
	return Step{Actor: AgentLeader, Action: "rotate tree key, seal KeyUpdate " + how, Emitted: &m, Next: n}
}

// leaderRecvInitReq: NotConnected -> WaitingForKeyAck(Nl, Ka) on reception
// of {A, L, N}_Pa; L generates fresh Nl and Ka and replies AuthKeyDist with
// {L, A, N, Nl, Ka}_Pa.
func (sys *System) leaderRecvInitReq(s *State) []Step {
	var steps []Step
	for _, c := range netEncs(s, sys.pa, 3) {
		comps := c.Body().Components()
		if !comps[0].Equal(sys.a) || !comps[1].Equal(sys.l) || comps[2].Kind() != symbolic.KindNonce {
			continue
		}
		na := comps[2]
		n := s.Clone()
		nl := n.freshNonce()
		ka := n.freshKey()
		m := Msg{
			Label:    LabelAuthKeyDist,
			Sender:   AgentLeader,
			Receiver: AgentUser,
			Content:  symbolic.Enc(symbolic.Tuple(sys.l, sys.a, na, nl, ka), sys.pa),
		}
		n.record(m)
		n.Lead = LeaderState{Phase: LeadWaitingForKeyAck, N: nl, Ka: ka}
		n.AdminSent = 0
		steps = append(steps, Step{
			Actor: AgentLeader, Action: "accept AuthInitReq, send AuthKeyDist",
			Consumed: c, Emitted: &m, Next: n,
		})
	}
	return steps
}

// leaderRecvKeyAck: WaitingForKeyAck(Nl, Ka) -> Connected(N', Ka) on
// reception of {A, L, Nl, N'}_Ka. This is the acceptance event counted by
// the proper-authentication property. snd_A starts empty for the session.
func (sys *System) leaderRecvKeyAck(s *State) []Step {
	var steps []Step
	for _, c := range netEncs(s, s.Lead.Ka, 4) {
		comps := c.Body().Components()
		if !comps[0].Equal(sys.a) || !comps[1].Equal(sys.l) || !comps[2].Equal(s.Lead.N) {
			continue
		}
		if comps[3].Kind() != symbolic.KindNonce {
			continue
		}
		n := s.Clone()
		n.Lead = LeaderState{Phase: LeadConnected, N: comps[3], Ka: s.Lead.Ka}
		n.AccL++
		n.SndA = nil
		steps = append(steps, Step{
			Actor: AgentLeader, Action: "accept AuthAckKey (A is now a member)",
			Consumed: c, Next: n,
		})
	}
	return steps
}

// leaderSendAdmin: Connected(Na, Ka) -> WaitingForAck(Nl, Ka); L sends
// AdminMsg with {L, A, Na, Nl, X}_Ka, appending X to snd_A. Payloads are
// distinct atoms tagged with the leader session and sequence number, so
// duplicate or out-of-order acceptance is observable.
func (sys *System) leaderSendAdmin(s *State) Step {
	n := s.Clone()
	nl := n.freshNonce()
	x := symbolic.Data(fmt.Sprintf("s%dm%d", s.AccL, len(s.SndA)+1))
	m := Msg{
		Label:    LabelAdminMsg,
		Sender:   AgentLeader,
		Receiver: AgentUser,
		Content:  symbolic.Enc(symbolic.Tuple(sys.l, sys.a, s.Lead.N, nl, x), s.Lead.Ka),
	}
	n.record(m)
	n.SndA = append(n.SndA, x)
	n.Lead = LeaderState{Phase: LeadWaitingForAck, N: nl, Ka: s.Lead.Ka}
	n.AdminSent++
	return Step{Actor: AgentLeader, Action: fmt.Sprintf("send AdminMsg %s", x), Emitted: &m, Next: n}
}

// leaderRecvAck: WaitingForAck(Nl, Ka) -> Connected(N', Ka) on reception of
// {A, L, Nl, N'}_Ka.
func (sys *System) leaderRecvAck(s *State) []Step {
	var steps []Step
	for _, c := range netEncs(s, s.Lead.Ka, 4) {
		comps := c.Body().Components()
		if !comps[0].Equal(sys.a) || !comps[1].Equal(sys.l) || !comps[2].Equal(s.Lead.N) {
			continue
		}
		if comps[3].Kind() != symbolic.KindNonce {
			continue
		}
		n := s.Clone()
		n.Lead = LeaderState{Phase: LeadConnected, N: comps[3], Ka: s.Lead.Ka}
		steps = append(steps, Step{
			Actor: AgentLeader, Action: "accept Ack",
			Consumed: c, Next: n,
		})
	}
	return steps
}

// leaderCrashPromote (failover extension): Connected(Na, Ka) ->
// Promoted(Na, Ka). The primary crashes; the last replicated delta
// {Na, Ka}_Kr is on the wire (the intruder observes it like every message),
// and the standby — holding K_r — takes over A's session from it. Primary
// and standby are collapsed into the one leader process L: they share all
// state by construction, and the crash is fail-stop (no Oops — a crashed
// primary is dead, not compromised; the compromised-leader case is what
// the post-promotion rekey in the ResumeAck addresses at the group layer).
func (sys *System) leaderCrashPromote(s *State) Step {
	n := s.Clone()
	m := Msg{
		Label:    LabelReplDelta,
		Sender:   AgentLeader,
		Receiver: AgentStandby,
		Content:  symbolic.Enc(symbolic.Pair(s.Lead.N, s.Lead.Ka), sys.kr),
	}
	n.record(m)
	n.Lead = LeaderState{Phase: LeadPromoted, N: s.Lead.N, Ka: s.Lead.Ka}
	n.Failovers++
	n.AdminSent = 0
	// LKH extension: the promoted standby rebuilds the tree from the
	// replica and forcibly rotates it (the runtime's epoch+1 on Promote) —
	// the crash is fail-stop so the old TK is not Oops'd, but the rotation
	// happens unconditionally because the standby cannot know whether the
	// primary's key material outlived it.
	if sys.cfg.LKH && s.TK != nil {
		n.TKDirty = true
	}
	return Step{Actor: AgentLeader, Action: "primary crashes, standby promoted from ReplDelta", Emitted: &m, Next: n}
}

// leaderRecvResume (failover extension): Promoted(Na, Ka) ->
// WaitingForAck(Nl, Ka) on reception of {A, L, Na, Nf}_Ka whose third
// component matches the replicated nonce Na — a one-shot freshness proof: a
// replayed Resume echoes a nonce the chain has moved past. The promoted
// leader answers with the ResumeAck {L, A, Nf, Nl, X}_Ka whose payload X
// (the runtime's post-promotion group key) joins snd_A, then waits for the
// ordinary completing Ack.
func (sys *System) leaderRecvResume(s *State) []Step {
	var steps []Step
	for _, c := range netEncs(s, s.Lead.Ka, 4) {
		comps := c.Body().Components()
		if !comps[0].Equal(sys.a) || !comps[1].Equal(sys.l) || !comps[2].Equal(s.Lead.N) {
			continue
		}
		nf := comps[3]
		if nf.Kind() != symbolic.KindNonce {
			continue
		}
		n := s.Clone()
		nl := n.freshNonce()
		x := symbolic.Data(fmt.Sprintf("f%dm%d", s.Failovers, len(s.SndA)+1))
		m := Msg{
			Label:    LabelResumeAck,
			Sender:   AgentLeader,
			Receiver: AgentUser,
			Content:  symbolic.Enc(symbolic.Tuple(sys.l, sys.a, nf, nl, x), s.Lead.Ka),
		}
		n.record(m)
		n.SndA = append(n.SndA, x)
		n.Lead = LeaderState{Phase: LeadWaitingForAck, N: nl, Ka: s.Lead.Ka}
		steps = append(steps, Step{
			Actor: AgentLeader, Action: fmt.Sprintf("accept Resume, send ResumeAck %s", x),
			Consumed: c, Emitted: &m, Next: n,
		})
	}
	return steps
}

// leaderRecvReqClose: any non-NotConnected leader phase -> NotConnected on
// reception of {A, L}_Ka. The session key is discarded and released to the
// network by an Oops event (Section 4.1), and snd_A is emptied.
func (sys *System) leaderRecvReqClose(s *State) []Step {
	var steps []Step
	for _, c := range netEncs(s, s.Lead.Ka, 2) {
		comps := c.Body().Components()
		if !comps[0].Equal(sys.a) || !comps[1].Equal(sys.l) {
			continue
		}
		n := s.Clone()
		oops := Msg{Label: LabelOops, Sender: AgentLeader, Receiver: "*", Content: s.Lead.Ka}
		n.record(oops)
		n.Oopsed.Add(s.Lead.Ka)
		n.Lead = LeaderState{Phase: LeadNotConnected}
		n.SndA = nil
		n.AdminSent = 0
		action := "accept ReqClose, close session, Oops(Ka)"
		// LKH extension: a departing member keeps the tree key it was
		// delivered — the Oops releases it (the departed member joins the
		// intruder's coalition) and dirties the tree, forcing a rotation
		// before any further path delivery. Forward secrecy (5.6) is
		// exactly that this Oops never reveals a post-rotation key.
		if sys.cfg.LKH && s.TKSent {
			tkOops := Msg{Label: LabelOops, Sender: AgentLeader, Receiver: "*", Content: s.TK}
			n.record(tkOops)
			n.Oopsed.Add(s.TK)
			n.TKDirty = true
			action += "+Oops(TK)"
		}
		n.TKSent = false
		steps = append(steps, Step{
			Actor: AgentLeader, Action: action,
			Consumed: c, Emitted: &oops, Next: n,
		})
	}
	return steps
}

// --- intruder E (Section 4.2) ---

// intruderSteps injects synthesized messages that could trigger a currently
// enabled honest guard and are not already in the trace. Constraint (2) of
// Section 4.2 is enforced: every injected content is in Gen(E, q) =
// Synth(Know(E, q) ∪ FreshFields(q)); E's fresh values are pre-seeded atoms
// in I(E) (negative identifiers), which honest guards cannot distinguish
// from genuinely fresh ones since they never test freshness of received
// values.
func (sys *System) intruderSteps(s *State) []Step {
	if sys.cfg.ReplayOnlyIntruder {
		return nil
	}
	var steps []Step
	add := func(label Label, receiver string, content *symbolic.Field, what string) {
		m := Msg{Label: label, Sender: AgentIntruder, Receiver: receiver, Content: content}
		if _, dup := s.Net[m.Key()]; dup {
			return
		}
		if !symbolic.CanSynth(content, s.IK) {
			return
		}
		n := s.Clone()
		n.record(m)
		steps = append(steps, Step{
			Actor: AgentIntruder, Action: "inject " + what,
			Emitted: &m, Next: n,
		})
	}

	nonces := atomsOfKind(s.IK, symbolic.KindNonce)
	keys := atomsOfKind(s.IK, symbolic.KindKey)
	data := atomsOfKind(s.IK, symbolic.KindData)

	// Forged AuthInitReq for the leader (requires P_a — secrecy should
	// make this unreachable, but the move is generated so a secrecy breach
	// would be exploited rather than masked).
	if s.Lead.Phase == LeadNotConnected {
		for _, nn := range nonces {
			add(LabelAuthInitReq, AgentLeader,
				symbolic.Enc(symbolic.Tuple(sys.a, sys.l, nn), sys.pa), "forged AuthInitReq")
		}
	}
	// Forged AuthKeyDist for a waiting user (requires P_a).
	if s.Usr.Phase == UserWaitingForKey {
		for _, nn := range nonces {
			for _, k := range keys {
				if k.KeyClass() != symbolic.KeySession {
					continue
				}
				add(LabelAuthKeyDist, AgentUser,
					symbolic.Enc(symbolic.Tuple(sys.l, sys.a, s.Usr.Na, nn, k), sys.pa), "forged AuthKeyDist")
			}
		}
	}
	// Forged AuthAckKey / Ack for a waiting leader (requires the session key).
	if s.Lead.Phase == LeadWaitingForKeyAck || s.Lead.Phase == LeadWaitingForAck {
		for _, nn := range nonces {
			add(LabelAck, AgentLeader,
				symbolic.Enc(symbolic.Tuple(sys.a, sys.l, s.Lead.N, nn), s.Lead.Ka), "forged Ack/AuthAckKey")
		}
	}
	// Forged AdminMsg for a connected user (requires the session key).
	if s.Usr.Phase == UserConnected {
		for _, nn := range nonces {
			for _, x := range data {
				add(LabelAdminMsg, AgentUser,
					symbolic.Enc(symbolic.Tuple(sys.l, sys.a, s.Usr.Na, nn, x), s.Usr.Ka), "forged AdminMsg")
			}
		}
	}
	// Forged ReqClose for the leader (requires the session key).
	if s.Lead.Phase != LeadNotConnected {
		add(LabelReqClose, AgentLeader,
			symbolic.Enc(symbolic.Pair(sys.a, sys.l), s.Lead.Ka), "forged ReqClose")
	}
	// Failover extension: forged Resume for a promoted leader and forged
	// ResumeAck for a resuming user (both require the session key), plus a
	// forged ReplDelta (requires K_r). None should ever be synthesizable
	// while the secrecy invariants hold; generating the moves ensures a
	// breach would be exploited rather than masked.
	if s.Lead.Phase == LeadPromoted {
		for _, nn := range nonces {
			add(LabelResume, AgentLeader,
				symbolic.Enc(symbolic.Tuple(sys.a, sys.l, s.Lead.N, nn), s.Lead.Ka), "forged Resume")
		}
	}
	if s.Usr.Phase == UserResuming {
		for _, nn := range nonces {
			for _, x := range data {
				add(LabelResumeAck, AgentUser,
					symbolic.Enc(symbolic.Tuple(sys.l, sys.a, s.Usr.Na, nn, x), s.Usr.Ka), "forged ResumeAck")
			}
		}
	}
	if sys.cfg.Failover && s.Lead.Phase != LeadNotConnected {
		add(LabelReplDelta, AgentStandby,
			symbolic.Enc(symbolic.Pair(s.Lead.N, s.Lead.Ka), sys.kr), "forged ReplDelta")
	}
	return steps
}

// --- helpers ---

// netEncs returns the distinct trace contents that are encryptions under
// key with a body of the given arity. Honest receive guards range over
// these: every deliverable field is a top-level trace content, since honest
// messages never nest encryptions and intruder injections are recorded in
// the trace before consumption.
func netEncs(s *State, key *symbolic.Field, arity int) []*symbolic.Field {
	seen := make(map[string]bool)
	var out []*symbolic.Field
	for _, m := range s.Messages() {
		c := m.Content
		if c.Kind() != symbolic.KindEnc || !c.EncKey().Equal(key) {
			continue
		}
		if len(c.Body().Components()) != arity {
			continue
		}
		if seen[c.Canon()] {
			continue
		}
		seen[c.Canon()] = true
		out = append(out, c)
	}
	return out
}

// atomsOfKind returns the atomic fields of the given kind in the set, in
// canonical order. It filters before sorting: the kind is a small share of
// the intruder's knowledge.
func atomsOfKind(s symbolic.Set, k symbolic.Kind) []*symbolic.Field {
	var out []*symbolic.Field
	s.Each(func(f *symbolic.Field) bool {
		if f.Kind() == k {
			out = append(out, f)
		}
		return true
	})
	slices.SortFunc(out, func(a, b *symbolic.Field) int { return strings.Compare(a.Canon(), b.Canon()) })
	return out
}
