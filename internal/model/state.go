package model

import (
	"fmt"
	"sort"
	"strings"

	"enclaves/internal/symbolic"
)

// UserPhase enumerates the local states of the honest user A (Figure 2).
type UserPhase uint8

// User phases of Figure 2.
const (
	UserNotConnected UserPhase = iota + 1
	UserWaitingForKey
	UserConnected
	// UserResuming (failover extension): A detected the primary's death and
	// sent Resume; it waits for the promoted standby's ResumeAck.
	UserResuming
)

func (p UserPhase) String() string {
	switch p {
	case UserNotConnected:
		return "NotConnected"
	case UserWaitingForKey:
		return "WaitingForKey"
	case UserConnected:
		return "Connected"
	case UserResuming:
		return "Resuming"
	default:
		return "invalid"
	}
}

// UserState is the local state of the honest user A: the phase plus the
// nonce and session key components shown in Figure 2.
//
//   - WaitingForKey(Na): Na is the fresh nonce sent in AuthInitReq.
//   - Connected(Na, Ka): Na is the last nonce A generated and sent to L;
//     it is the nonce A expects inside the next AdminMsg.
type UserState struct {
	Phase UserPhase
	Na    *symbolic.Field // nonce component; nil when NotConnected
	Ka    *symbolic.Field // session key; nil unless Connected
}

func (u UserState) key() string {
	return fmt.Sprintf("%d/%s/%s", u.Phase, canonOrDash(u.Na), canonOrDash(u.Ka))
}

func (u UserState) String() string {
	switch u.Phase {
	case UserWaitingForKey:
		return fmt.Sprintf("WaitingForKey(%s)", u.Na)
	case UserConnected:
		return fmt.Sprintf("Connected(%s,%s)", u.Na, u.Ka)
	case UserResuming:
		return fmt.Sprintf("Resuming(%s,%s)", u.Na, u.Ka)
	default:
		return u.Phase.String()
	}
}

// LeaderPhase enumerates the local states of the leader's per-user
// transition system for A (Figure 3).
type LeaderPhase uint8

// Leader phases of Figure 3.
const (
	LeadNotConnected LeaderPhase = iota + 1
	LeadWaitingForKeyAck
	LeadConnected
	LeadWaitingForAck
	// LeadPromoted (failover extension): the primary crashed and the standby
	// took over A's session from the replicated state; it waits for A's
	// Resume before serving the session again.
	LeadPromoted
)

func (p LeaderPhase) String() string {
	switch p {
	case LeadNotConnected:
		return "NotConnected"
	case LeadWaitingForKeyAck:
		return "WaitingForKeyAck"
	case LeadConnected:
		return "Connected"
	case LeadWaitingForAck:
		return "WaitingForAck"
	case LeadPromoted:
		return "Promoted"
	default:
		return "invalid"
	}
}

// LeaderState is the local state of the leader's system for user A:
//
//   - WaitingForKeyAck(Nl, Ka): L generated fresh Ka and waits for an
//     acknowledgment containing Nl.
//   - Connected(Na, Ka): Na is the most recent nonce received from A, to be
//     included in the next group-management message.
//   - WaitingForAck(Nl, Ka): L sent an AdminMsg carrying fresh Nl and waits
//     for the matching Ack.
type LeaderState struct {
	Phase LeaderPhase
	N     *symbolic.Field // Nl or Na depending on the phase; nil when NotConnected
	Ka    *symbolic.Field // session key in use; nil when NotConnected
}

func (l LeaderState) key() string {
	return fmt.Sprintf("%d/%s/%s", l.Phase, canonOrDash(l.N), canonOrDash(l.Ka))
}

func (l LeaderState) String() string {
	switch l.Phase {
	case LeadWaitingForKeyAck:
		return fmt.Sprintf("WaitingForKeyAck(%s,%s)", l.N, l.Ka)
	case LeadConnected:
		return fmt.Sprintf("Connected(%s,%s)", l.N, l.Ka)
	case LeadWaitingForAck:
		return fmt.Sprintf("WaitingForAck(%s,%s)", l.N, l.Ka)
	case LeadPromoted:
		return fmt.Sprintf("Promoted(%s,%s)", l.N, l.Ka)
	default:
		return l.Phase.String()
	}
}

// InUse reports whether the session key k is in use by the leader, per the
// definition of Section 5.2: L's local state contains k as a component.
func (l LeaderState) InUse(k *symbolic.Field) bool {
	return l.Phase != LeadNotConnected && l.Ka != nil && l.Ka.Equal(k)
}

func canonOrDash(f *symbolic.Field) string {
	if f == nil {
		return "-"
	}
	return f.Canon()
}

// Config bounds the exploration so the reachable state space is finite.
type Config struct {
	// MaxSessions bounds how many times A may start the join protocol.
	MaxSessions int
	// MaxAdmin bounds how many AdminMsg exchanges L initiates per session.
	MaxAdmin int
	// ReplayOnlyIntruder disables the intruder's synthesized injections,
	// leaving only replay of observed messages (which the honest guards
	// range over implicitly). With the secrecy invariants intact the two
	// intruders are equally powerful — synthesized injections only ever
	// fire after a key compromise — so this ablation measures what the
	// injection machinery costs (see DESIGN.md).
	ReplayOnlyIntruder bool

	// IntruderSessions lets the leader also serve the compromised member E:
	// E (played by the intruder, who holds P_E) can join, receive admin
	// messages, acknowledge, and close its own sessions. This models the
	// full Section 3.1 threat — the attacker as a PARTICIPANT, not just an
	// eavesdropper — and the Section 5 properties about A must survive it.
	IntruderSessions bool

	// Failover enables the leader-replication extension: the primary may
	// crash from Connected, emitting a sealed ReplDelta and handing A's
	// session to the promoted standby (LeadPromoted); A may then resume the
	// session with a Resume/ResumeAck exchange instead of a fresh join.
	Failover bool
	// MaxFailovers bounds how many crash+promote events may occur; 0 means
	// 1 when Failover is set.
	MaxFailovers int

	// LKH enables the logical-key-hierarchy extension: the leader maintains
	// a tree key TK (the LKH root — the group key) delivered to connected
	// members over PathKeys, and rotates it with a KeyUpdate sealed under
	// the subtree key K_s whenever a departure or a promotion dirties the
	// tree. Forward secrecy is the new 5.6 obligation: a departed member —
	// folded into the intruder by the Oops(TK) it triggers — must never
	// learn a post-departure TK.
	LKH bool

	// WeakLKHRotation deliberately seals the rotated tree key TK' under the
	// OLD tree key instead of the subtree key K_s — the classic broken
	// group rekey ("encrypt the new key under the key being replaced"),
	// which hands every post-departure key to the departed member. It
	// exists for the checker's sensitivity tests: only the 5.6 forward-
	// secrecy obligation detects it, every other Section 5 property holds.
	WeakLKHRotation bool

	// WeakResumeFreshness deliberately REMOVES the resuming user's check
	// that the ResumeAck echoes the fresh nonce sent in Resume. A replayed
	// pre-failover AdminMsg (same content shape under the same K_a) is then
	// re-accepted, violating the 5.4a prefix property — the failover
	// counterpart of WeakAdminFreshness, for the checker's sensitivity
	// tests.
	WeakResumeFreshness bool

	// WeakAdminFreshness deliberately REMOVES the member-nonce freshness
	// check on AdminMsg reception — the user accepts any admin message
	// under its session key regardless of the chained nonce, recreating
	// the legacy new_key weakness inside the improved protocol's shape.
	// It exists to demonstrate that the checker DETECTS broken designs
	// (mutation testing of the verification itself); see the checker's
	// sensitivity tests.
	WeakAdminFreshness bool
}

// DefaultConfig is the bound used for the headline verification run
// (experiment F4 in DESIGN.md): two user sessions with two admin messages
// each, which exercises every edge of the verification diagram including
// cross-session replays against oops'd session keys.
func DefaultConfig() Config {
	return Config{MaxSessions: 2, MaxAdmin: 2}
}

// State is a global state of the improved-protocol model: the honest local
// states, the set of messages sent so far (the trace, as a set — the network
// never forgets and freely duplicates), the intruder's knowledge closure,
// and the bookkeeping lists of Section 5.4 (snd_A, rcv_A) plus the
// authentication counters.
type State struct {
	Usr  UserState
	Lead LeaderState

	// Net is the trace as a set: message key -> message. Resending an
	// element is a no-op, matching the set semantics of Paulson traces.
	Net map[string]Msg

	// IK is Know(E, q) = Analz(I(E) ∪ trace contents): the intruder's
	// Analz-closed knowledge. Maintained incrementally.
	IK symbolic.Set

	// SndA and RcvA are the payload lists of Section 5.4: group-management
	// payloads sent by L to A and accepted by A in the current session.
	SndA []*symbolic.Field
	RcvA []*symbolic.Field

	// ReqA counts AuthInitReq messages sent by A; AccL counts acceptances
	// (AuthAckKey messages accepted) by L. Proper authentication requires
	// AccL to never exceed ReqA.
	ReqA int
	AccL int

	// Sessions counts joins started by A; AdminSent counts AdminMsg
	// exchanges started by L in the current leader session. Both feed the
	// Config bounds.
	Sessions  int
	AdminSent int

	// LeadE is the leader's per-user system for the compromised member E
	// (only active with Config.IntruderSessions); ESessions and AdminSentE
	// bound its cycles like Sessions/AdminSent bound A's.
	LeadE      LeaderState
	ESessions  int
	AdminSentE int
	// EEngagements counts how many E-sessions the leader has opened
	// (including ones triggered by replayed E join requests); it is
	// bounded by MaxSessions to keep the space finite, since E can always
	// complete and close its own sessions and would otherwise recycle
	// forever.
	EEngagements int

	// Failovers counts crash+promote events (failover extension);
	// ResumesStarted counts Resume exchanges A has begun. A resume is only
	// enabled after a crash (ResumesStarted < Failovers), which both models
	// the silence detection that triggers resumption and bounds the space.
	Failovers      int
	ResumesStarted int

	// TK is the current LKH tree key (nil until first allocated, and always
	// nil with Config.LKH off). TKSent records that the connected member
	// holds TK (a PathKeys delivery happened this session); TKDirty marks a
	// tree whose key must be rotated before any further path delivery — set
	// by the departure of a TK-holding member and by a crash+promotion.
	TK      *symbolic.Field
	TKSent  bool
	TKDirty bool

	// NonceCtr and KeyCtr allocate fresh honest nonces and session keys
	// for A's sessions. E-session values come from a disjoint range (see
	// ENonceCtr) so that interleaving A- and E-activity does not permute
	// identifiers — without the split, logically identical states differ
	// only in id assignment and the space explodes combinatorially.
	NonceCtr int
	KeyCtr   int

	// ENonceCtr and EKeyCtr allocate fresh values for the leader's
	// E-sessions, offset into their own id range.
	ENonceCtr int
	EKeyCtr   int

	// Oopsed records session keys that have been released by Oops events.
	Oopsed symbolic.Set

	// key caches the canonical Key(). States are only hashed after their
	// deriving transition has finished mutating them, so the first Key()
	// call memoizes safely; Clone leaves the cache empty on the copy.
	key string
}

// NewInitialState returns q0: both A and L not connected, empty trace, and
// the intruder knowing only public identities, its own long-term key P_E,
// and a pool of intruder-owned atoms standing in for the fresh nonces, keys
// and payloads E may generate (Section 4.2's FreshFields, folded into I(E)
// since the honest guards never test freshness of adversarial values).
func NewInitialState() *State {
	ik := symbolic.NewSet(
		symbolic.Agent(AgentUser),
		symbolic.Agent(AgentLeader),
		symbolic.Agent(AgentIntruder),
		symbolic.LongTermKey(AgentIntruder),
		// Intruder-owned fresh values. Honest nonces and keys are
		// allocated from non-negative counters, so negative identifiers
		// can never collide with them.
		symbolic.Nonce(-1),
		symbolic.Nonce(-2),
		symbolic.SessionKey(-1),
		symbolic.Data("evil"),
	)
	return &State{
		Usr:    UserState{Phase: UserNotConnected},
		Lead:   LeaderState{Phase: LeadNotConnected},
		LeadE:  LeaderState{Phase: LeadNotConnected},
		Net:    make(map[string]Msg),
		IK:     ik,
		Oopsed: symbolic.NewSet(),
	}
}

// Clone returns a deep copy suitable for deriving a successor state.
func (s *State) Clone() *State {
	c := &State{
		Usr:            s.Usr,
		Lead:           s.Lead,
		Net:            make(map[string]Msg, len(s.Net)+1),
		IK:             s.IK.Clone(),
		SndA:           append([]*symbolic.Field(nil), s.SndA...),
		RcvA:           append([]*symbolic.Field(nil), s.RcvA...),
		ReqA:           s.ReqA,
		AccL:           s.AccL,
		Sessions:       s.Sessions,
		AdminSent:      s.AdminSent,
		Failovers:      s.Failovers,
		ResumesStarted: s.ResumesStarted,
		TK:             s.TK,
		TKSent:         s.TKSent,
		TKDirty:        s.TKDirty,

		LeadE:        s.LeadE,
		ESessions:    s.ESessions,
		AdminSentE:   s.AdminSentE,
		EEngagements: s.EEngagements,
		NonceCtr:     s.NonceCtr,
		KeyCtr:       s.KeyCtr,
		ENonceCtr:    s.ENonceCtr,
		EKeyCtr:      s.EKeyCtr,
		Oopsed:       s.Oopsed.Clone(),
	}
	for k, v := range s.Net {
		c.Net[k] = v
	}
	return c
}

// record appends a message to the trace and folds its content into the
// intruder's knowledge (every agent observes every event, Section 4.2).
func (s *State) record(m Msg) {
	s.Net[m.Key()] = m
	symbolic.AnalzAdd(s.IK, m.Content)
}

// freshNonce allocates the next honest nonce. Honest fresh values are drawn
// deterministically from a counter; by construction they have never appeared
// in the trace, satisfying the FreshNonces side-condition of Section 4.2.
func (s *State) freshNonce() *symbolic.Field {
	n := symbolic.Nonce(s.NonceCtr)
	s.NonceCtr++
	return n
}

// freshKey allocates the next honest session key.
func (s *State) freshKey() *symbolic.Field {
	k := symbolic.SessionKey(s.KeyCtr)
	s.KeyCtr++
	return k
}

// eRangeBase offsets E-session identifiers away from A-session ones; the
// exploration bounds keep A's counters far below it.
const eRangeBase = 1 << 20

// freshENonce allocates the next nonce for an E-session.
func (s *State) freshENonce() *symbolic.Field {
	n := symbolic.Nonce(eRangeBase + s.ENonceCtr)
	s.ENonceCtr++
	return n
}

// freshEKey allocates the next session key for an E-session.
func (s *State) freshEKey() *symbolic.Field {
	k := symbolic.SessionKey(eRangeBase + s.EKeyCtr)
	s.EKeyCtr++
	return k
}

// TraceContents returns the set of message contents in the trace
// (the paper's underlined trace(q)).
func (s *State) TraceContents() symbolic.Set {
	out := symbolic.NewSet()
	for _, m := range s.Net {
		out.Add(m.Content)
	}
	return out
}

// Messages returns the trace in deterministic (key-sorted) order.
func (s *State) Messages() []Msg {
	keys := make([]string, 0, len(s.Net))
	for k := range s.Net {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Msg, len(keys))
	for i, k := range keys {
		out[i] = s.Net[k]
	}
	return out
}

// Key returns a canonical hash key identifying the state for the visited
// set. IK is derivable from the trace and initial knowledge, so it is not
// part of the key; Oopsed likewise (every Oops is a trace message). Honest
// fresh-value identifiers are renamed to first-occurrence order (see
// canonicalizeKey), so permuted-but-isomorphic states share one key. The
// result is memoized: the checker hashes each state at discovery and again
// for collision confirmation, and the builders below are the hot loop's
// dominant allocation without the cache.
func (s *State) Key() string {
	if s.key != "" {
		return s.key
	}
	keys := make([]string, 0, len(s.Net))
	size := 0
	for k := range s.Net {
		keys = append(keys, k)
		size += len(k) + 1
	}
	sort.Strings(keys)

	var b strings.Builder
	b.Grow(size + 24*(len(s.SndA)+len(s.RcvA)) + 160)
	b.WriteString(s.Usr.key())
	b.WriteByte('#')
	b.WriteString(s.Lead.key())
	b.WriteByte('#')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(k)
	}
	b.WriteByte('#')
	for _, f := range s.SndA {
		b.WriteString(f.Canon())
		b.WriteByte(';')
	}
	b.WriteByte('#')
	for _, f := range s.RcvA {
		b.WriteString(f.Canon())
		b.WriteByte(';')
	}
	fmt.Fprintf(&b, "#%d/%d/%d/%d/%d/%d", s.ReqA, s.AccL, s.Sessions, s.AdminSent, s.NonceCtr, s.KeyCtr)
	fmt.Fprintf(&b, "#%d/%d", s.Failovers, s.ResumesStarted)
	fmt.Fprintf(&b, "#%s/%t/%t", canonOrDash(s.TK), s.TKSent, s.TKDirty)
	fmt.Fprintf(&b, "#%s/%d/%d/%d/%d/%d", s.LeadE.key(), s.ESessions, s.AdminSentE, s.EEngagements, s.ENonceCtr, s.EKeyCtr)
	s.key = canonicalizeKey(b.String())
	return s.key
}

func (s *State) String() string {
	return fmt.Sprintf("usr=%s lead=%s |trace|=%d snd=%d rcv=%d", s.Usr, s.Lead, len(s.Net), len(s.SndA), len(s.RcvA))
}
