package checker

import (
	"fmt"

	"enclaves/internal/model"
	"enclaves/internal/symbolic"
)

// This file discharges the state invariants of Sections 5.1, 5.2 and the
// derived properties of Section 5.4 over an exhaustive exploration.

// CheckSecrecyLongTerm verifies the Section 5.1 theorem: in every reachable
// state, A's long-term key P_a occurs nowhere in the trace (the regularity
// consequence) and is not in the intruder's knowledge:
//
//	∀G: P_a ∈ Know(G, q) ⇒ G = A ∨ G = L.
func CheckSecrecyLongTerm(ex *Exploration) Obligation {
	pa := ex.System.LongTermKey()
	for _, n := range ex.Nodes {
		if n.exposed&exposesPa != 0 {
			return fail("5.1", "secrecy of long-term key P_a",
				fmt.Sprintf("P_a occurs in Parts(trace) at %s", n.State), n)
		}
		if n.State.IK.Contains(pa) {
			return fail("5.1", "secrecy of long-term key P_a",
				fmt.Sprintf("intruder knows P_a at %s", n.State), n)
		}
	}
	return pass("5.1", "secrecy of long-term key P_a",
		fmt.Sprintf("%d states", len(ex.Nodes)))
}

// CheckRegularity verifies the regularity lemma's premise (Section 5.1): no
// transition by A or L ever emits a message containing P_a as a part. The
// check is computed by the exploration as transitions are generated
// (Exploration.HonestSends / RegViolation), so it holds over every explored
// transition even when the edge list itself is not retained.
func CheckRegularity(ex *Exploration) Obligation {
	if e := ex.RegViolation; e != nil {
		return fail("5.1r", "protocol regularity (honest agents never send P_a)",
			fmt.Sprintf("%s emits P_a in %s", e.Step.Actor, e.Step.Emitted), e.To)
	}
	return pass("5.1r", "protocol regularity (honest agents never send P_a)",
		fmt.Sprintf("%d honest sends", ex.HonestSends))
}

// CheckSecrecySession verifies the Section 5.2 theorem: for every reachable
// state and every in-use session key K_a,
//
//	InUse(K_a, q) ∧ K_a ∈ Know(G, q) ⇒ G = A ∨ G = L,
//
// via the stronger coideal invariant trace(q) ⊆ C({K_a, P_a}). With the
// failover extension the protecting set generalizes to {K_a, P_a, K_r}:
// replication deltas carry the in-use K_a sealed under K_r, so session-key
// secrecy holds exactly as far as K_r does (discharged by CheckSecrecyRepl).
func CheckSecrecySession(ex *Exploration) Obligation {
	pa := ex.System.LongTermKey()
	inUseStates := 0
	for _, n := range ex.Nodes {
		s := n.State
		if s.Lead.Phase == model.LeadNotConnected {
			continue
		}
		ka := s.Lead.Ka
		inUseStates++
		ideal := symbolic.NewSet(ka, pa)
		if ex.System.Config().Failover {
			ideal.Add(ex.System.ReplKey())
		}
		if !symbolic.SetInCoideal(s.TraceContents(), ideal) {
			return fail("5.2", "secrecy of in-use session keys K_a",
				fmt.Sprintf("trace escapes C({K_a,P_a}) for %s at %s", ka, s), n)
		}
		if s.IK.Contains(ka) {
			return fail("5.2", "secrecy of in-use session keys K_a",
				fmt.Sprintf("intruder knows in-use %s at %s", ka, s), n)
		}
	}
	return pass("5.2", "secrecy of in-use session keys K_a",
		fmt.Sprintf("%d states with a key in use", inUseStates))
}

// CheckSecrecyRepl verifies the failover extension's counterpart of 5.1 for
// the replication key: K_r occurs nowhere in the trace and never enters the
// intruder's knowledge. K_r is pre-shared between primary and standby and
// only ever used as a sealing key, so it inherits the regularity argument of
// P_a — and with it, via the generalized 5.2 ideal, the secrecy of every
// replicated session key.
func CheckSecrecyRepl(ex *Exploration) Obligation {
	kr := ex.System.ReplKey()
	for _, n := range ex.Nodes {
		if n.exposed&exposesKr != 0 {
			return fail("5.5", "secrecy of replication key K_r",
				fmt.Sprintf("K_r occurs in Parts(trace) at %s", n.State), n)
		}
		if n.State.IK.Contains(kr) {
			return fail("5.5", "secrecy of replication key K_r",
				fmt.Sprintf("intruder knows K_r at %s", n.State), n)
		}
	}
	return pass("5.5", "secrecy of replication key K_r",
		fmt.Sprintf("%d states", len(ex.Nodes)))
}

// CheckSecrecyTreeKey verifies the LKH extension's forward-secrecy
// obligation (5.6): the subtree key K_s behaves like P_a and K_r (never in
// the trace, never known to the intruder), and the CURRENT tree key TK —
// whenever one is live and not yet released by its own Oops — stays outside
// the intruder's knowledge. A departed member is folded into the intruder
// by the Oops(TK) its departure triggers, so this is precisely forward
// secrecy: departure must not reveal any post-rotation tree key. With
// Config.LKH off no tree key ever exists and the obligation passes
// vacuously over the K_s checks alone.
func CheckSecrecyTreeKey(ex *Exploration) Obligation {
	ks := ex.System.SubtreeKey()
	live := 0
	for _, n := range ex.Nodes {
		s := n.State
		if n.exposed&exposesKs != 0 {
			return fail("5.6", "forward secrecy of the LKH tree key TK",
				fmt.Sprintf("K_s occurs in Parts(trace) at %s", s), n)
		}
		if s.IK.Contains(ks) {
			return fail("5.6", "forward secrecy of the LKH tree key TK",
				fmt.Sprintf("intruder knows K_s at %s", s), n)
		}
		if s.TK == nil || s.Oopsed.Contains(s.TK) {
			continue
		}
		live++
		if s.IK.Contains(s.TK) {
			return fail("5.6", "forward secrecy of the LKH tree key TK",
				fmt.Sprintf("intruder knows the current tree key %s at %s", s.TK, s), n)
		}
	}
	detail := fmt.Sprintf("%d states with a live TK", live)
	if !ex.System.Config().LKH {
		detail = "vacuous: LKH disabled"
	}
	return pass("5.6", "forward secrecy of the LKH tree key TK", detail)
}

// CheckOopsedKeysArePublic is the sanity complement of 5.2: once a session
// is closed the Oops event really does publish the old key, so the
// verification is not vacuous — the intruder genuinely holds old session
// keys while the properties continue to hold.
func CheckOopsedKeysArePublic(ex *Exploration) Obligation {
	withOops := 0
	for _, n := range ex.Nodes {
		ok := true
		n.State.Oopsed.Each(func(k *symbolic.Field) bool {
			withOops++
			if !n.State.IK.Contains(k) {
				ok = false
				return false
			}
			return true
		})
		if !ok {
			return fail("5.2o", "oops'd session keys become public (model sanity)",
				fmt.Sprintf("an oops'd key is unknown to the intruder at %s", n.State), n)
		}
	}
	return pass("5.2o", "oops'd session keys become public (model sanity)",
		fmt.Sprintf("%d oops observations", withOops))
}

// CheckPrefixDelivery verifies the first Section 5.4 property: the list of
// group-management payloads accepted by A (rcv_A) is a prefix of the list
// sent by L (snd_A) in every reachable state — delivery is in order, with
// no duplicates and no forgeries.
func CheckPrefixDelivery(ex *Exploration) Obligation {
	nonEmpty := 0
	for _, n := range ex.Nodes {
		s := n.State
		if len(s.RcvA) > 0 {
			nonEmpty++
		}
		if len(s.RcvA) > len(s.SndA) {
			return fail("5.4a", "rcv_A is a prefix of snd_A (ordered, duplicate-free)",
				fmt.Sprintf("rcv=%v longer than snd=%v", s.RcvA, s.SndA), n)
		}
		for i, x := range s.RcvA {
			if !x.Equal(s.SndA[i]) {
				return fail("5.4a", "rcv_A is a prefix of snd_A (ordered, duplicate-free)",
					fmt.Sprintf("rcv[%d]=%s but snd[%d]=%s", i, x, i, s.SndA[i]), n)
			}
		}
	}
	return pass("5.4a", "rcv_A is a prefix of snd_A (ordered, duplicate-free)",
		fmt.Sprintf("%d states with non-empty rcv_A", nonEmpty))
}

// CheckAuthentication verifies the second Section 5.4 property, proper user
// authentication: L's acceptance events are always preceded by matching join
// requests from A, so the count of acceptances never exceeds the count of
// requests.
func CheckAuthentication(ex *Exploration) Obligation {
	accepts := 0
	for _, n := range ex.Nodes {
		if n.State.AccL > accepts {
			accepts = n.State.AccL
		}
		if n.State.AccL > n.State.ReqA {
			return fail("5.4b", "proper user authentication (acceptances ≤ requests)",
				fmt.Sprintf("AccL=%d > ReqA=%d", n.State.AccL, n.State.ReqA), n)
		}
	}
	return pass("5.4b", "proper user authentication (acceptances ≤ requests)",
		fmt.Sprintf("max %d acceptances", accepts))
}

// CheckAgreement verifies the third Section 5.4 property: whenever A and L
// are both Connected they agree on the session key and on the most recent
// nonce produced by A.
func CheckAgreement(ex *Exploration) Obligation {
	both := 0
	for _, n := range ex.Nodes {
		s := n.State
		if s.Usr.Phase != model.UserConnected || s.Lead.Phase != model.LeadConnected {
			continue
		}
		both++
		if !s.Usr.Ka.Equal(s.Lead.Ka) || !s.Usr.Na.Equal(s.Lead.N) {
			return fail("5.4c", "key and nonce agreement when both Connected",
				fmt.Sprintf("usr=%s lead=%s", s.Usr, s.Lead), n)
		}
	}
	return pass("5.4c", "key and nonce agreement when both Connected",
		fmt.Sprintf("%d states with both Connected", both))
}

// CheckKeyPossession verifies the last Section 5.4 remark: whenever A holds
// a session key K_a, the key is in use at the leader (InUse(K_a, q)).
func CheckKeyPossession(ex *Exploration) Obligation {
	held := 0
	for _, n := range ex.Nodes {
		s := n.State
		if s.Usr.Phase != model.UserConnected {
			continue
		}
		held++
		if !s.Lead.InUse(s.Usr.Ka) {
			return fail("5.4d", "A's session key is always in use at L",
				fmt.Sprintf("usr=%s lead=%s", s.Usr, s.Lead), n)
		}
	}
	return pass("5.4d", "A's session key is always in use at L",
		fmt.Sprintf("%d states with A connected", held))
}

// AllInvariants runs every Section 5.1/5.2/5.4 obligation over ex, plus the
// extension obligations 5.5 (replication-key secrecy) and 5.6 (LKH tree-key
// forward secrecy), which pass vacuously when their extension is disabled.
func AllInvariants(ex *Exploration) []Obligation {
	return []Obligation{
		CheckRegularity(ex),
		CheckSecrecyLongTerm(ex),
		CheckSecrecySession(ex),
		CheckSecrecyRepl(ex),
		CheckSecrecyTreeKey(ex),
		CheckOopsedKeysArePublic(ex),
		CheckPrefixDelivery(ex),
		CheckAuthentication(ex),
		CheckAgreement(ex),
		CheckKeyPossession(ex),
	}
}

func pass(id, name, detail string) Obligation {
	return Obligation{ID: id, Name: name, Holds: true, Detail: detail}
}

func fail(id, name, detail string, n *Node) Obligation {
	return Obligation{ID: id, Name: name, Holds: false, Detail: detail, Witness: n.Trace()}
}
