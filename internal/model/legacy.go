package model

import (
	"fmt"
	"sort"
	"strings"

	"enclaves/internal/symbolic"
)

// This file models the ORIGINAL Enclaves protocol of Section 2.2 — the
// paper's baseline — so the checker can exhibit the Section 2.3 attacks as
// reachable violation states:
//
//	V1 (denial of service): A ends up Denied although the leader never sent
//	    connection_denied — the pre-authentication reply is unauthenticated.
//	V2 (membership forgery): a compromised insider forges mem_removed
//	    {B}_Kg, so A's view drops B while B is still a member.
//	V3 (group-key rollback): a past member replays an old new_key message,
//	    rolling A back to a group key the attacker knows.
//	V4 (forced close): the intruder forges A's plaintext req_close, so the
//	    leader closes a session A never asked to end.
//
// The scenario follows Section 2.3: the group initially contains an honest
// member B and the compromised member E (who therefore legitimately holds
// the current group key). A joins, the leader rekeys, expels E, and rekeys
// again; the intruder interferes arbitrarily.

// LegacyUserPhase enumerates A's local states in the legacy protocol.
type LegacyUserPhase uint8

// Legacy user phases.
const (
	LegUserNotConnected LegacyUserPhase = iota + 1
	LegUserWaitOpen
	LegUserDenied
	LegUserWaitKey
	LegUserConnected
)

func (p LegacyUserPhase) String() string {
	switch p {
	case LegUserNotConnected:
		return "NotConnected"
	case LegUserWaitOpen:
		return "WaitOpen"
	case LegUserDenied:
		return "Denied"
	case LegUserWaitKey:
		return "WaitKey"
	case LegUserConnected:
		return "Connected"
	default:
		return "invalid"
	}
}

// LegacyLeaderPhase enumerates L's per-A local states in the legacy
// protocol.
type LegacyLeaderPhase uint8

// Legacy leader phases.
const (
	LegLeadIdle LegacyLeaderPhase = iota + 1
	LegLeadWaitAuth1
	LegLeadWaitAuthAck
	LegLeadConnected
	LegLeadClosed
)

func (p LegacyLeaderPhase) String() string {
	switch p {
	case LegLeadIdle:
		return "Idle"
	case LegLeadWaitAuth1:
		return "WaitAuth1"
	case LegLeadWaitAuthAck:
		return "WaitAuthAck"
	case LegLeadConnected:
		return "Connected"
	case LegLeadClosed:
		return "Closed"
	default:
		return "invalid"
	}
}

// AgentMemberB is the honest bystander member of the legacy scenario.
const AgentMemberB = "B"

// LegacyState is a global state of the legacy-protocol model.
type LegacyState struct {
	UsrPhase LegacyUserPhase
	UsrN1    *symbolic.Field
	UsrKa    *symbolic.Field
	UsrKg    *symbolic.Field // group key A currently believes in
	UsrMaxKg int             // highest group-key epoch A has ever accepted
	ViewHasB bool            // whether A's membership view contains B

	LeadPhase   LegacyLeaderPhase
	LeadN2      *symbolic.Field
	LeadKa      *symbolic.Field
	LeadKg      *symbolic.Field // leader's current group key
	EMember     bool            // whether E is still a group member
	DeniedEver  bool            // whether L ever sent connection_denied
	RekeyCount  int
	ExpelsCount int

	Net map[string]Msg
	IK  symbolic.Set

	NonceCtr int
	KeyCtr   int
}

// legacy protocol plaintext token atoms.
var (
	legTokReqOpen  = symbolic.Data("req_open")
	legTokAckOpen  = symbolic.Data("ack_open")
	legTokDenied   = symbolic.Data("connection_denied")
	legTokReqClose = symbolic.Data("req_close")
	legTokIV       = symbolic.Data("iv")
)

// LegacyConfig bounds the legacy exploration.
type LegacyConfig struct {
	// MaxRekeys bounds how many new group keys L distributes.
	MaxRekeys int
}

// DefaultLegacyConfig exercises the full attack scenario: two rekeys are
// enough for the rollback attack (one while E is a member, one after the
// expulsion).
func DefaultLegacyConfig() LegacyConfig {
	return LegacyConfig{MaxRekeys: 2}
}

// LegacySystem is the bounded legacy-protocol model.
type LegacySystem struct {
	cfg LegacyConfig
	pa  *symbolic.Field
	a   *symbolic.Field
	l   *symbolic.Field
	b   *symbolic.Field
}

// NewLegacySystem returns the legacy model bounded by cfg.
func NewLegacySystem(cfg LegacyConfig) *LegacySystem {
	return &LegacySystem{
		cfg: cfg,
		pa:  symbolic.LongTermKey(AgentUser),
		a:   symbolic.Agent(AgentUser),
		l:   symbolic.Agent(AgentLeader),
		b:   symbolic.Agent(AgentMemberB),
	}
}

// Initial returns the legacy scenario's initial state: the group holds B
// and the compromised member E; the current group key Kg0 (epoch 0) is
// therefore known to the intruder.
func (sys *LegacySystem) Initial() *LegacyState {
	kg0 := symbolic.SessionKey(0)
	ik := symbolic.NewSet(
		sys.a, sys.l, sys.b, symbolic.Agent(AgentIntruder),
		symbolic.LongTermKey(AgentIntruder),
		legTokReqOpen, legTokAckOpen, legTokDenied, legTokReqClose, legTokIV,
		symbolic.Nonce(-1), symbolic.Nonce(-2),
		kg0, // E is a group member and holds the current group key
	)
	return &LegacyState{
		UsrPhase:  LegUserNotConnected,
		UsrMaxKg:  -1,
		LeadPhase: LegLeadIdle,
		LeadKg:    kg0,
		EMember:   true,
		Net:       make(map[string]Msg),
		IK:        ik,
		NonceCtr:  0,
		KeyCtr:    1, // 0 is Kg0
	}
}

// Clone returns a deep copy.
func (s *LegacyState) Clone() *LegacyState {
	c := *s
	c.Net = make(map[string]Msg, len(s.Net)+1)
	for k, v := range s.Net {
		c.Net[k] = v
	}
	c.IK = s.IK.Clone()
	return &c
}

func (s *LegacyState) record(m Msg) {
	s.Net[m.Key()] = m
	symbolic.AnalzAdd(s.IK, m.Content)
}

func (s *LegacyState) freshNonce() *symbolic.Field {
	n := symbolic.Nonce(s.NonceCtr)
	s.NonceCtr++
	return n
}

func (s *LegacyState) freshKey() *symbolic.Field {
	k := symbolic.SessionKey(s.KeyCtr)
	s.KeyCtr++
	return k
}

// Key returns the canonical state identifier for the visited set.
func (s *LegacyState) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d/%s/%s/%s/%d/%t#%d/%s/%s/%s/%t/%t/%d/%d",
		s.UsrPhase, canonOrDash(s.UsrN1), canonOrDash(s.UsrKa), canonOrDash(s.UsrKg), s.UsrMaxKg, s.ViewHasB,
		s.LeadPhase, canonOrDash(s.LeadN2), canonOrDash(s.LeadKa), canonOrDash(s.LeadKg),
		s.EMember, s.DeniedEver, s.RekeyCount, s.ExpelsCount)
	keys := make([]string, 0, len(s.Net))
	for k := range s.Net {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b.WriteByte('#')
	b.WriteString(strings.Join(keys, "|"))
	return b.String()
}

func (s *LegacyState) String() string {
	return fmt.Sprintf("usr=%s(kg=%s viewB=%t) lead=%s(kg=%s E∈G=%t) |trace|=%d",
		s.UsrPhase, s.UsrKg, s.ViewHasB, s.LeadPhase, s.LeadKg, s.EMember, len(s.Net))
}

// LegacyStep is one transition of the legacy model.
type LegacyStep = Transition[*LegacyState]

// Successors enumerates every enabled legacy transition.
func (sys *LegacySystem) Successors(s *LegacyState) []LegacyStep {
	var steps []LegacyStep
	steps = append(steps, sys.userSteps(s)...)
	steps = append(steps, sys.leaderSteps(s)...)
	steps = append(steps, sys.intruderSteps(s)...)
	return steps
}

func (sys *LegacySystem) userSteps(s *LegacyState) []LegacyStep {
	var steps []LegacyStep
	switch s.UsrPhase {
	case LegUserNotConnected:
		// 1. A -> L: A, req_open (plaintext).
		n := s.Clone()
		m := Msg{Label: LabelReqOpen, Sender: AgentUser, Receiver: AgentLeader,
			Content: symbolic.Pair(sys.a, legTokReqOpen)}
		n.record(m)
		n.UsrPhase = LegUserWaitOpen
		steps = append(steps, LegacyStep{Actor: AgentUser, Action: "send req_open", Emitted: &m, Next: n})

	case LegUserWaitOpen:
		// A reacts to ack_open or connection_denied — both plaintext and
		// therefore trivially forgeable.
		ack := symbolic.Pair(sys.l, legTokAckOpen)
		if s.hasContent(ack) {
			n := s.Clone()
			n1 := n.freshNonce()
			m := Msg{Label: LabelLegacyAuth1, Sender: AgentUser, Receiver: AgentLeader,
				Content: symbolic.Enc(symbolic.Tuple(sys.a, sys.l, n1), sys.pa)}
			n.record(m)
			n.UsrPhase = LegUserWaitKey
			n.UsrN1 = n1
			steps = append(steps, LegacyStep{Actor: AgentUser, Action: "accept ack_open, send auth1",
				Consumed: ack, Emitted: &m, Next: n})
		}
		denied := symbolic.Pair(sys.l, legTokDenied)
		if s.hasContent(denied) {
			n := s.Clone()
			n.UsrPhase = LegUserDenied
			steps = append(steps, LegacyStep{Actor: AgentUser, Action: "accept connection_denied, give up",
				Consumed: denied, Next: n})
		}

	case LegUserWaitKey:
		// 2. L -> A: {L, A, N1, N2, Ka, IV, Kg}_Pa.
		for _, c := range legNetEncs(s, sys.pa, 7) {
			comps := c.Body().Components()
			if !comps[0].Equal(sys.l) || !comps[1].Equal(sys.a) || !comps[2].Equal(s.UsrN1) {
				continue
			}
			n2, ka, kg := comps[3], comps[4], comps[6]
			if n2.Kind() != symbolic.KindNonce || ka.Kind() != symbolic.KindKey || kg.Kind() != symbolic.KindKey {
				continue
			}
			n := s.Clone()
			m := Msg{Label: LabelLegacyAuth3, Sender: AgentUser, Receiver: AgentLeader,
				Content: symbolic.Enc(n2, ka)}
			n.record(m)
			n.UsrPhase = LegUserConnected
			n.UsrKa = ka
			n.UsrKg = kg
			n.UsrMaxKg = kg.ID()
			n.ViewHasB = true // L's member list message; B is a member
			steps = append(steps, LegacyStep{Actor: AgentUser, Action: "accept auth2, send auth3, connected",
				Consumed: c, Emitted: &m, Next: n})
		}

	case LegUserConnected:
		// new_key: A accepts ANY {Kg', IV}_Ka — no freshness evidence
		// (Section 2.3), so replays of old new_key messages are accepted.
		for _, c := range legNetEncs(s, s.UsrKa, 2) {
			comps := c.Body().Components()
			kg := comps[0]
			if kg.Kind() != symbolic.KindKey || !comps[1].Equal(legTokIV) {
				continue
			}
			if s.UsrKg.Equal(kg) {
				continue // no state change
			}
			n := s.Clone()
			m := Msg{Label: LabelNewKeyAck, Sender: AgentUser, Receiver: AgentLeader,
				Content: symbolic.Enc(kg, kg)}
			n.record(m)
			n.UsrKg = kg
			if kg.ID() > n.UsrMaxKg {
				n.UsrMaxKg = kg.ID()
			}
			steps = append(steps, LegacyStep{Actor: AgentUser,
				Action: fmt.Sprintf("accept new_key %s", kg), Consumed: c, Emitted: &m, Next: n})
		}
		// mem_removed: any {B}_Kg under A's current group key is believed —
		// no sender authentication (Section 2.3).
		if s.ViewHasB {
			rm := symbolic.Enc(sys.b, s.UsrKg)
			if s.hasContent(rm) {
				n := s.Clone()
				n.ViewHasB = false
				steps = append(steps, LegacyStep{Actor: AgentUser,
					Action: "accept mem_removed(B): drop B from view", Consumed: rm, Next: n})
			}
		}
	}
	return steps
}

func (sys *LegacySystem) leaderSteps(s *LegacyState) []LegacyStep {
	var steps []LegacyStep
	switch s.LeadPhase {
	case LegLeadIdle:
		// 2. L -> A: L, ack_open (L's policy accepts A).
		req := symbolic.Pair(sys.a, legTokReqOpen)
		if s.hasContent(req) {
			n := s.Clone()
			m := Msg{Label: LabelAckOpen, Sender: AgentLeader, Receiver: AgentUser,
				Content: symbolic.Pair(sys.l, legTokAckOpen)}
			n.record(m)
			n.LeadPhase = LegLeadWaitAuth1
			steps = append(steps, LegacyStep{Actor: AgentLeader, Action: "accept req_open, send ack_open",
				Consumed: req, Emitted: &m, Next: n})
		}

	case LegLeadWaitAuth1:
		for _, c := range legNetEncs(s, sys.pa, 3) {
			comps := c.Body().Components()
			if !comps[0].Equal(sys.a) || !comps[1].Equal(sys.l) || comps[2].Kind() != symbolic.KindNonce {
				continue
			}
			n := s.Clone()
			n2 := n.freshNonce()
			ka := n.freshKey()
			m := Msg{Label: LabelLegacyAuth2, Sender: AgentLeader, Receiver: AgentUser,
				Content: symbolic.Enc(symbolic.Tuple(sys.l, sys.a, comps[2], n2, ka, legTokIV, s.LeadKg), sys.pa)}
			n.record(m)
			n.LeadPhase = LegLeadWaitAuthAck
			n.LeadN2 = n2
			n.LeadKa = ka
			steps = append(steps, LegacyStep{Actor: AgentLeader, Action: "accept auth1, send auth2",
				Consumed: c, Emitted: &m, Next: n})
		}

	case LegLeadWaitAuthAck:
		ack := symbolic.Enc(s.LeadN2, s.LeadKa)
		if s.hasContent(ack) {
			n := s.Clone()
			n.LeadPhase = LegLeadConnected
			steps = append(steps, LegacyStep{Actor: AgentLeader, Action: "accept auth3, A connected",
				Consumed: ack, Next: n})
		}

	case LegLeadConnected:
		// Rekey: L -> A: new_key, {Kg', IV}_Ka. While E is still a member,
		// E legitimately receives its own copy and thus learns Kg'.
		if s.RekeyCount < sys.cfg.MaxRekeys {
			n := s.Clone()
			kg := n.freshKey()
			m := Msg{Label: LabelNewKey, Sender: AgentLeader, Receiver: AgentUser,
				Content: symbolic.Enc(symbolic.Pair(kg, legTokIV), s.LeadKa)}
			n.record(m)
			n.LeadKg = kg
			n.RekeyCount++
			if s.EMember {
				symbolic.AnalzAdd(n.IK, kg)
			}
			steps = append(steps, LegacyStep{Actor: AgentLeader,
				Action: fmt.Sprintf("rekey to %s", kg), Emitted: &m, Next: n})
		}
		// Expel E: L -> A: mem_removed, {E}_Kg (the "variation used to
		// expel members", Section 2.2). E keeps every key it saw.
		if s.EMember && s.ExpelsCount < 1 {
			n := s.Clone()
			m := Msg{Label: LabelMemRemoved, Sender: AgentLeader, Receiver: AgentUser,
				Content: symbolic.Enc(symbolic.Agent(AgentIntruder), s.LeadKg)}
			n.record(m)
			n.EMember = false
			n.ExpelsCount++
			steps = append(steps, LegacyStep{Actor: AgentLeader, Action: "expel E, send mem_removed(E)",
				Emitted: &m, Next: n})
		}
		// close: A, req_close arrives in plaintext, so L cannot tell who
		// sent it and ends A's session.
		req := symbolic.Pair(sys.a, legTokReqClose)
		if s.hasContent(req) {
			n := s.Clone()
			n.LeadPhase = LegLeadClosed
			steps = append(steps, LegacyStep{Actor: AgentLeader, Action: "accept req_close, close A's session",
				Consumed: req, Next: n})
		}
	}
	return steps
}

func (sys *LegacySystem) intruderSteps(s *LegacyState) []LegacyStep {
	var steps []LegacyStep
	add := func(label Label, to string, content *symbolic.Field, what string) {
		m := Msg{Label: label, Sender: AgentIntruder, Receiver: to, Content: content}
		if _, dup := s.Net[m.Key()]; dup {
			return
		}
		if !symbolic.CanSynth(content, s.IK) {
			return
		}
		n := s.Clone()
		n.record(m)
		steps = append(steps, LegacyStep{Actor: AgentIntruder, Action: "inject " + what, Emitted: &m, Next: n})
	}

	// Forged connection_denied: plaintext, always synthesizable (attack A1).
	if s.UsrPhase == LegUserWaitOpen {
		add(LabelConnDenied, AgentUser, symbolic.Pair(sys.l, legTokDenied), "forged connection_denied")
	}
	// Forged mem_removed(B) under any group key E knows (attack A2).
	if s.UsrPhase == LegUserConnected && s.ViewHasB {
		add(LabelMemRemoved, AgentUser, symbolic.Enc(sys.b, s.UsrKg), "forged mem_removed(B)")
	}
	// Forged new_key under A's session key, should E ever learn it.
	if s.UsrPhase == LegUserConnected {
		for _, k := range atomsOfKind(s.IK, symbolic.KindKey) {
			if k.KeyClass() != symbolic.KeySession {
				continue
			}
			add(LabelNewKey, AgentUser, symbolic.Enc(symbolic.Pair(k, legTokIV), s.UsrKa), "forged new_key")
		}
	}
	// Forged req_close in A's name: plaintext, always synthesizable
	// (attack A4).
	if s.LeadPhase == LegLeadConnected {
		add(LabelLegacyReqClose, AgentLeader, symbolic.Pair(sys.a, legTokReqClose), "forged req_close")
	}
	return steps
}

func (s *LegacyState) hasContent(c *symbolic.Field) bool {
	for _, m := range s.Net {
		if m.Content.Equal(c) {
			return true
		}
	}
	return false
}

// legNetEncs returns distinct trace contents that are encryptions under key
// with the given body arity.
func legNetEncs(s *LegacyState, key *symbolic.Field, arity int) []*symbolic.Field {
	seen := make(map[string]bool)
	var out []*symbolic.Field
	keys := make([]string, 0, len(s.Net))
	for k := range s.Net {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		c := s.Net[k].Content
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

// --- violation predicates (the Section 2.3 attack goals) ---

// LegacyViolation identifies one of the Section 2.3 attack goals.
type LegacyViolation string

// The four attack goals of Section 2.3.
const (
	ViolationForgedDenial LegacyViolation = "forged-denial"      // A1
	ViolationMembership   LegacyViolation = "membership-forgery" // A2
	ViolationKeyRollback  LegacyViolation = "group-key-rollback" // A3
	ViolationForcedClose  LegacyViolation = "forced-close"       // A4
)

// Violations reports which attack goals hold in state s.
func Violations(s *LegacyState) []LegacyViolation {
	var out []LegacyViolation
	if s.UsrPhase == LegUserDenied && !s.DeniedEver {
		out = append(out, ViolationForgedDenial)
	}
	if s.UsrPhase == LegUserConnected && !s.ViewHasB {
		// B never leaves in this scenario, so a dropped B is always forged.
		out = append(out, ViolationMembership)
	}
	// A rolled back to an older key the intruder knows, while E is a past
	// member and the group's real key is secret from it: while E is still
	// a member it legitimately holds every key, so there is nothing to roll
	// back from.
	if s.UsrPhase == LegUserConnected && s.UsrKg != nil &&
		s.UsrKg.ID() < s.UsrMaxKg && s.IK.Contains(s.UsrKg) &&
		!s.EMember && !s.IK.Contains(s.LeadKg) {
		out = append(out, ViolationKeyRollback)
	}
	if s.LeadPhase == LegLeadClosed {
		// A never sends req_close in this scenario, so every close is forced.
		out = append(out, ViolationForcedClose)
	}
	return out
}
