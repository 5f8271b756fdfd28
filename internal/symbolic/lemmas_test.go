package symbolic

import (
	"math/rand"
	"testing"
)

// This file property-checks the algebraic lemmas from Paulson [11] and
// Millen-Rueß [10] that the paper's Section 5 proofs lean on, beyond the
// coideal closure laws tested in closure_test.go.

// Analz ∘ Parts = Parts: analyzing the parts yields the parts again
// (parts are already fully decomposed except for undecryptable bodies,
// which Analz cannot open any further than Parts already did).
func TestAnalzOfPartsIsPartsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 200; i++ {
		s := randomSet(r, 6, 3)
		p := Parts(s)
		if !Analz(p).Equal(p) {
			t.Fatalf("Analz(Parts(S)) != Parts(S) for %v", s)
		}
	}
}

// Parts ∘ Analz = Parts: analysis never creates parts that were not already
// there.
func TestPartsOfAnalzIsPartsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for i := 0; i < 200; i++ {
		s := randomSet(r, 6, 3)
		if !Parts(Analz(s)).Equal(Parts(s)) {
			t.Fatalf("Parts(Analz(S)) != Parts(S) for %v", s)
		}
	}
}

// Synthesis from analyzable knowledge cannot produce new atoms: any atomic
// field synthesizable from Analz(S) (other than public agent names) occurs
// in Parts(S).
func TestSynthCreatesNoAtomsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 300; i++ {
		s := randomSet(r, 6, 3)
		know := Analz(s)
		parts := Parts(s)
		f := randomField(r, 1)
		if !f.IsAtomic() || f.Kind() == KindAgent {
			continue
		}
		if CanSynth(f, know) && !parts.Contains(f) {
			t.Fatalf("synthesized an atom %v absent from Parts(%v)", f, s)
		}
	}
}

// Freshness soundness: a field whose canonical form never occurs in a set's
// parts cannot be analyzed out of it.
func TestFreshValuesNotAnalyzableProperty(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	fresh := Nonce(987654) // never produced by randomAtoms
	for i := 0; i < 200; i++ {
		s := randomSet(r, 6, 3)
		if Parts(s).Contains(fresh) {
			t.Fatal("generator produced the reserved fresh nonce")
		}
		if Analz(s).Contains(fresh) {
			t.Fatalf("fresh nonce analyzable from %v", s)
		}
		if CanSynth(fresh, Analz(s)) {
			t.Fatalf("fresh nonce synthesizable from %v", s)
		}
	}
}

// The ideal is antitone-ish in its defining set only through keys: adding a
// non-key atom to S can only grow I(S) membership for that atom itself and
// fields containing it.
func TestIdealGrowsWithSProperty(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	base := NewSet(SessionKey(1), LongTermKey("A"))
	for i := 0; i < 300; i++ {
		f := randomField(r, 3)
		if InIdeal(f, base) {
			bigger := base.Clone()
			bigger.Add(Nonce(5))
			// Hypothesis: enlarging S with a non-key atom never removes a
			// PAIR from the ideal; encryptions can drop out only when the
			// new element is their key. Nonce(5) is not a key, but it CAN
			// shield {X}_K... no: the ideal's encryption clause tests
			// K ∉ S, and Nonce(5) is never an encryption key in generated
			// fields. So membership must persist.
			if !InIdeal(f, bigger) {
				t.Fatalf("ideal membership lost when growing S: %v", f)
			}
		}
	}
}

// Encryption under a key IN S shields any content (the {K_a}_{P_a} example
// from Section 5.2): for every field X, {X}_Pa is outside I({Ka, Pa}).
func TestEncryptionUnderProtectedKeyShieldsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	s := NewSet(SessionKey(1), LongTermKey("A"))
	for i := 0; i < 300; i++ {
		x := randomField(r, 3)
		if InIdeal(Enc(x, LongTermKey("A")), s) {
			t.Fatalf("{%v}_Pa is in I(S) despite Pa ∈ S", x)
		}
		if InIdeal(Enc(x, SessionKey(1)), s) {
			t.Fatalf("{%v}_Ka is in I(S) despite Ka ∈ S", x)
		}
	}
}

// Pairing leaks: [X, Y] is in the ideal exactly when a component is.
func TestPairIdealMembershipProperty(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	s := NewSet(SessionKey(1), LongTermKey("A"))
	for i := 0; i < 300; i++ {
		x, y := randomField(r, 2), randomField(r, 2)
		want := InIdeal(x, s) || InIdeal(y, s)
		if got := InIdeal(Pair(x, y), s); got != want {
			t.Fatalf("InIdeal([%v,%v]) = %v, want %v", x, y, got, want)
		}
	}
}
