package symbolic

import (
	"math/rand"
	"testing"
)

func TestPartsBasic(t *testing.T) {
	a, l, n1 := Agent("A"), Agent("L"), Nonce(1)
	pa := LongTermKey("A")
	msg := Enc(Tuple(a, l, n1), pa)
	parts := Parts(NewSet(msg))

	for _, want := range []*Field{msg, Tuple(a, l, n1), a, Pair(l, n1), l, n1} {
		if !parts.Contains(want) {
			t.Errorf("Parts missing %v", want)
		}
	}
	// The encryption key is NOT a part (Paulson's definition).
	if parts.Contains(pa) {
		t.Errorf("Parts must not contain the encryption key %v", pa)
	}
}

func TestPartsEntersNestedEncryptions(t *testing.T) {
	ka, kb := SessionKey(1), SessionKey(2)
	inner := Enc(Nonce(9), ka)
	outer := Enc(inner, kb)
	parts := Parts(NewSet(outer))
	if !parts.Contains(Nonce(9)) {
		t.Error("Parts must reach through nested encryptions")
	}
	if parts.Contains(ka) || parts.Contains(kb) {
		t.Error("Parts must not contain encryption keys")
	}
}

func TestAnalzOpensOnlyKnownKeys(t *testing.T) {
	ka := SessionKey(1)
	secret := Nonce(42)
	locked := Enc(secret, ka)

	// Without the key the nonce stays hidden.
	known := Analz(NewSet(locked))
	if known.Contains(secret) {
		t.Error("Analz opened an encryption without the key")
	}
	// With the key it is extractable.
	known = Analz(NewSet(locked, ka))
	if !known.Contains(secret) {
		t.Error("Analz failed to open an encryption with a known key")
	}
}

func TestAnalzChainsKeyDiscovery(t *testing.T) {
	// {K1}_K2 and K2 known: K1 becomes known, which then opens {N}_K1.
	k1, k2 := SessionKey(1), SessionKey(2)
	n := Nonce(5)
	s := NewSet(Enc(k1, k2), Enc(n, k1), k2)
	known := Analz(s)
	if !known.Contains(k1) {
		t.Error("Analz did not extract the chained key")
	}
	if !known.Contains(n) {
		t.Error("Analz did not use a freshly extracted key")
	}
}

func TestAnalzSplitsPairs(t *testing.T) {
	a, n := Agent("A"), Nonce(1)
	known := Analz(NewSet(Pair(a, Pair(n, SessionKey(7)))))
	for _, want := range []*Field{a, n, SessionKey(7)} {
		if !known.Contains(want) {
			t.Errorf("Analz missing pair component %v", want)
		}
	}
}

func TestAnalzKeyInsidePairOpensEncryption(t *testing.T) {
	// The key arrives inside a pair; Analz must still use it.
	k := SessionKey(3)
	n := Nonce(8)
	known := Analz(NewSet(Pair(Agent("A"), k), Enc(n, k)))
	if !known.Contains(n) {
		t.Error("Analz did not open encryption with key extracted from a pair")
	}
}

// analzReference is the closure AnalzAdd replaced: clone S, then sweep its
// fields in canonical order, splitting pairs and opening encryptions whose
// key is held, until a sweep adds nothing.
func analzReference(s Set) Set {
	out := s.Clone()
	changed := true
	for changed {
		changed = false
		for _, f := range out.Fields() {
			switch f.kind {
			case KindPair:
				changed = out.Add(f.left) || changed
				changed = out.Add(f.right) || changed
			case KindEnc:
				if out.Contains(f.right) && out.Add(f.left) {
					changed = true
				}
			}
		}
	}
	return out
}

// TestAnalzAddMatchesReference folds AnalzAdd over seeded random field
// sequences and checks every prefix against analzReference. Besides random
// fields, each sequence holds an encryption whose key arrives after it, a key
// nested inside an encrypted body, and a pair of encryptions.
func TestAnalzAddMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	keys := []*Field{LongTermKey("A"), LongTermKey("E"), SessionKey(1), SessionKey(2)}
	for i := 0; i < 300; i++ {
		k1, k2 := keys[r.Intn(len(keys))], keys[r.Intn(len(keys))]
		seq := []*Field{
			Enc(randomField(r, 2), k1),
			Enc(Pair(randomField(r, 1), k1), k2),
			Pair(Enc(randomField(r, 2), k2), Enc(k2, k1)),
		}
		for j := r.Intn(4); j > 0; j-- {
			seq = append(seq, randomField(r, 3))
		}
		r.Shuffle(len(seq), func(a, b int) { seq[a], seq[b] = seq[b], seq[a] })
		seq = append(seq, []*Field{k1, k2}[r.Intn(2)])

		got, prefix := NewSet(), NewSet()
		for _, f := range seq {
			AnalzAdd(got, f)
			prefix.Add(f)
			if want := analzReference(prefix); !got.Equal(want) {
				t.Fatalf("AnalzAdd over %v = %v, want %v", prefix, got, want)
			}
		}
		if !Analz(prefix).Equal(got) {
			t.Fatalf("Analz(%v) differs from the AnalzAdd fold", prefix)
		}
	}
}

func TestCanSynth(t *testing.T) {
	ka := SessionKey(1)
	pa := LongTermKey("A")
	n1, n2 := Nonce(1), Nonce(2)
	know := NewSet(ka, n1)

	tests := []struct {
		name   string
		target *Field
		want   bool
	}{
		{"known atom", n1, true},
		{"unknown nonce", n2, false},
		{"agent always public", Agent("Z"), true},
		{"pair of knowns", Pair(n1, ka), true},
		{"pair with unknown", Pair(n1, n2), false},
		{"enc under known key", Enc(Pair(Agent("A"), n1), ka), true},
		{"enc under unknown key", Enc(n1, pa), false},
		{"enc of unknown body", Enc(n2, ka), false},
		{"nested enc", Enc(Enc(n1, ka), ka), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := CanSynth(tt.target, know); got != tt.want {
				t.Errorf("CanSynth(%v) = %v, want %v", tt.target, got, tt.want)
			}
		})
	}
}

func TestInIdeal(t *testing.T) {
	ka := SessionKey(1)
	pa := LongTermKey("A")
	pb := LongTermKey("B")
	s := NewSet(ka, pa) // S = {K_a, P_a} as in Section 5.2

	tests := []struct {
		name string
		f    *Field
		want bool
	}{
		{"element of S", ka, true},
		{"other atom", Nonce(1), false},
		{"pair containing Ka", Pair(Nonce(1), ka), true},
		{"pair without S", Pair(Nonce(1), Nonce(2)), false},
		// {X,Y,Ka}_Pb is in I(S): holder of Pb can extract Ka (paper example).
		{"Ka under foreign key", Enc(Tuple(Agent("X"), Agent("Y"), ka), pb), true},
		// {Ka}_Pa is NOT in I(S): Pa ∈ S protects it.
		{"Ka under key in S", Enc(ka, pa), false},
		{"harmless enc", Enc(Nonce(1), pb), false},
		{"nested leak", Enc(Enc(pa, pb), pb), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := InIdeal(tt.f, s); got != tt.want {
				t.Errorf("InIdeal(%v) = %v, want %v", tt.f, got, tt.want)
			}
		})
	}
}

func TestSetInCoideal(t *testing.T) {
	s := NewSet(SessionKey(1), LongTermKey("A"))
	good := NewSet(Nonce(1), Enc(Nonce(2), LongTermKey("A")))
	if !SetInCoideal(good, s) {
		t.Error("safe set reported as leaking")
	}
	bad := good.Clone()
	bad.Add(Pair(Nonce(3), SessionKey(1)))
	if SetInCoideal(bad, s) {
		t.Error("leaking set reported as safe")
	}
}

// --- Property-based tests of the algebraic laws used by the paper's proofs ---

// Analz is idempotent and extensive: S ⊆ Analz(S) = Analz(Analz(S)).
func TestAnalzIdempotentProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		s := randomSet(r, 6, 3)
		a1 := Analz(s)
		if !s.Subset(a1) {
			t.Fatalf("Analz not extensive for %v", s)
		}
		if !Analz(a1).Equal(a1) {
			t.Fatalf("Analz not idempotent for %v", s)
		}
	}
}

// Parts is idempotent, extensive, and contains Analz(S).
func TestPartsContainsAnalzProperty(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		s := randomSet(r, 6, 3)
		p := Parts(s)
		if !s.Subset(p) {
			t.Fatalf("Parts not extensive for %v", s)
		}
		if !Parts(p).Equal(p) {
			t.Fatalf("Parts not idempotent for %v", s)
		}
		if !Analz(s).Subset(p) {
			t.Fatalf("Analz(S) ⊄ Parts(S) for %v", s)
		}
	}
}

// Coideal closure under Analz (property (3) of Section 5.2):
// if E ⊆ C(S) then Analz(E) ⊆ C(S), for S a set of keys.
func TestCoidealClosedUnderAnalzProperty(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	s := NewSet(SessionKey(1), LongTermKey("A"))
	checked := 0
	for i := 0; i < 2000 && checked < 300; i++ {
		e := randomSet(r, 5, 3)
		if !SetInCoideal(e, s) {
			continue // property's hypothesis not met
		}
		checked++
		if !SetInCoideal(Analz(e), s) {
			t.Fatalf("Analz escaped the coideal: E=%v", e)
		}
	}
	if checked < 50 {
		t.Fatalf("too few coideal samples: %d", checked)
	}
}

// Coideal closure under Synth (property (4) of Section 5.2): any field
// synthesizable from a subset of C(S) stays in C(S).
func TestCoidealClosedUnderSynthProperty(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	s := NewSet(SessionKey(1), LongTermKey("A"))
	checked := 0
	for i := 0; i < 4000 && checked < 300; i++ {
		e := Analz(randomSet(r, 5, 3))
		if !SetInCoideal(e, s) {
			continue
		}
		f := randomField(r, 3)
		if !CanSynth(f, e) {
			continue
		}
		checked++
		if InIdeal(f, s) {
			t.Fatalf("Synth escaped the coideal: E=%v f=%v", e, f)
		}
	}
	if checked < 50 {
		t.Fatalf("too few synth samples: %d", checked)
	}
}

// Ideal-Parts Lemma (Section 5.2): Parts(E) ∩ S = ∅ ⇒ E ⊆ C(S).
func TestIdealPartsLemmaProperty(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	s := NewSet(SessionKey(1), LongTermKey("A"))
	checked := 0
	for i := 0; i < 2000 && checked < 300; i++ {
		e := randomSet(r, 5, 3)
		disjoint := true
		Parts(e).Each(func(f *Field) bool {
			if s.Contains(f) {
				disjoint = false
				return false
			}
			return true
		})
		if !disjoint {
			continue
		}
		checked++
		if !SetInCoideal(e, s) {
			t.Fatalf("Ideal-Parts lemma violated for E=%v", e)
		}
	}
	if checked < 50 {
		t.Fatalf("too few disjoint samples: %d", checked)
	}
}

// Monotonicity: S ⊆ T ⇒ Analz(S) ⊆ Analz(T) and Parts(S) ⊆ Parts(T).
func TestClosureMonotonicityProperty(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 200; i++ {
		s := randomSet(r, 4, 3)
		tt := s.Clone()
		tt.Add(randomField(r, 3))
		if !Analz(s).Subset(Analz(tt)) {
			t.Fatalf("Analz not monotone: S=%v T=%v", s, tt)
		}
		if !Parts(s).Subset(Parts(tt)) {
			t.Fatalf("Parts not monotone: S=%v T=%v", s, tt)
		}
	}
}

// CanSynth is sound w.r.t. Analz: anything in the knowledge set is
// synthesizable, and synthesizable atoms (except public agents) must already
// be known.
func TestCanSynthAtomSoundnessProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		know := Analz(randomSet(r, 5, 3))
		f := randomField(r, 2)
		if know.Contains(f) && !CanSynth(f, know) {
			t.Fatalf("known field not synthesizable: %v", f)
		}
		if f.IsAtomic() && f.Kind() != KindAgent && CanSynth(f, know) && !know.Contains(f) {
			t.Fatalf("unknown atom synthesized: %v", f)
		}
	}
}
