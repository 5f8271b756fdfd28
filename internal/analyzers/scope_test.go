package analyzers

import "testing"

// TestRegistryScope pins the one registry's five analyzers and which
// packages each gates — the scope table is part of the contract (faultnet's
// seeded randomness and the attack driver's one-shot ciphers are
// deliberate, not oversights).
func TestRegistryScope(t *testing.T) {
	applies := map[string]func(string) bool{}
	for _, sa := range Registry() {
		applies[sa.Name] = sa.Applies
	}
	if len(applies) != 5 || len(Registry()) != 5 {
		t.Fatalf("registry has %d analyzers (%d distinct), want 5", len(Registry()), len(applies))
	}
	cases := []struct {
		analyzer string
		path     string
		want     bool
	}{
		{"cryptorand", "enclaves/internal/crypto", true},
		{"cryptorand", "enclaves/internal/wire", true},
		{"cryptorand", "enclaves/internal/faultnet", false}, // seeded by design
		{"cryptorand", "enclaves/examples/membership", false},
		{"cachedcipher", "enclaves/internal/core", true},
		{"cachedcipher", "enclaves/internal/attack", false},
		{"wireexhaustive", "enclaves/internal/wire", true},
		{"wireexhaustive", "enclaves/internal/transport", false},
		{"lockorder", "enclaves/internal/group", true},
		{"lockorder", "enclaves/internal/crypto", false}, // no locks there
		{"keytaint", "enclaves/internal/crypto", true},
		{"keytaint", "enclaves/internal/faultnet", false},
	}
	for _, c := range cases {
		f, ok := applies[c.analyzer]
		if !ok {
			t.Fatalf("analyzer %s not registered", c.analyzer)
		}
		if got := f(c.path); got != c.want {
			t.Errorf("%s.Applies(%s) = %v, want %v", c.analyzer, c.path, got, c.want)
		}
	}
}
