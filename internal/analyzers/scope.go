package analyzers

import "slices"

// A ScopedAnalyzer pairs an analyzer with the exact import paths whose
// findings it gates. The analyzer still sees the whole module (lockorder's
// summaries cross package lines); only diagnostics landing in a
// scoped package are reported. Scoping lives here — in the registry, not
// inside the analyzers — so the same analyzers run unconditionally over
// testdata corpora in tests.
type ScopedAnalyzer struct {
	*Analyzer
	// Packages are the import paths the analyzer applies to. Everything
	// else (examples, attack tooling, the seeded faultnet adversary) is
	// deliberately out of scope.
	Packages []string
}

// Applies reports whether findings in the package at path are gated.
func (s ScopedAnalyzer) Applies(path string) bool {
	return slices.Contains(s.Packages, path)
}

const (
	pkgCrypto    = "enclaves/internal/crypto"
	pkgCore      = "enclaves/internal/core"
	pkgMember    = "enclaves/internal/member"
	pkgGroup     = "enclaves/internal/group"
	pkgWire      = "enclaves/internal/wire"
	pkgTransport = "enclaves/internal/transport"
	pkgReplica   = "enclaves/internal/replica"
	pkgLkh       = "enclaves/internal/lkh"
)

// Registry returns every analyzer with its package scope.
//
//   - cryptorand: the protocol packages named by the invariant; faultnet is
//     exempt (seeded determinism is its purpose), as are examples/ and the
//     attack driver.
//   - cachedcipher: hot-path packages only; the attack driver uses the
//     one-shot helpers by design.
//   - wireexhaustive: every package that dispatches on wire enums.
//   - keytaint: everywhere key material lives or flows — the key hierarchy
//     (crypto, lkh), the protocol engines, replication (K_r), and the wire
//     layer.
//   - lockorder: every package that locks — the annotated hierarchies and
//     their callers, plus every package that also seals or sends under a
//     lock.
func Registry() []ScopedAnalyzer {
	return []ScopedAnalyzer{
		{CryptoRand, []string{pkgCrypto, pkgCore, pkgMember, pkgGroup, pkgWire, pkgReplica, pkgLkh}},
		{CachedCipher, []string{pkgCore, pkgMember, pkgGroup, pkgReplica}},
		{WireExhaustive, []string{pkgCore, pkgMember, pkgGroup, pkgWire, pkgReplica}},
		{KeyTaint, []string{pkgCrypto, pkgCore, pkgMember, pkgGroup, pkgWire, pkgReplica, pkgLkh}},
		{LockOrder, []string{pkgCore, pkgMember, pkgGroup, pkgTransport, pkgReplica, pkgLkh}},
	}
}
