package analyzers

import "slices"

// A ScopedAnalyzer pairs an analyzer with the exact import paths it gates.
// Scoping lives here — at the driver layer, not inside the analyzers — so
// the same analyzers run unconditionally over testdata corpora in tests.
type ScopedAnalyzer struct {
	*Analyzer
	// Packages are the import paths the analyzer applies to. Everything
	// else (examples, attack tooling, the seeded faultnet adversary) is
	// deliberately out of scope.
	Packages []string
}

// Applies reports whether the analyzer gates the package at path.
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
	pkgLegacy    = "enclaves/internal/legacy"
	pkgReplica   = "enclaves/internal/replica"
	pkgLkh       = "enclaves/internal/lkh"
)

// Registry returns every analyzer with its package scope.
//
//   - cryptorand: the protocol packages named by the invariant; faultnet is
//     exempt (seeded determinism is its purpose), as are examples/ and the
//     attack driver.
//   - cachedcipher: hot-path packages only; legacy and attack use the
//     one-shot helpers by design (the legacy protocol is the frozen
//     vulnerable baseline, not a hot path).
//   - wireexhaustive: every package that dispatches on wire enums.
func Registry() []ScopedAnalyzer {
	return []ScopedAnalyzer{
		{CryptoRand, []string{pkgCrypto, pkgCore, pkgMember, pkgGroup, pkgWire, pkgReplica, pkgLkh}},
		{CachedCipher, []string{pkgCore, pkgMember, pkgGroup, pkgReplica}},
		{WireExhaustive, []string{pkgCore, pkgMember, pkgGroup, pkgLegacy, pkgWire, pkgReplica}},
	}
}

// A ScopedModuleAnalyzer pairs an interprocedural analyzer with the import
// paths its *findings* gate: the analyzer still sees the whole module (its
// summaries cross package lines), but only diagnostics landing in a scoped
// package are reported.
type ScopedModuleAnalyzer struct {
	*ModuleAnalyzer
	Packages []string
}

// Applies reports whether findings in the package at path are gated.
func (s ScopedModuleAnalyzer) Applies(path string) bool {
	return slices.Contains(s.Packages, path)
}

// ModuleRegistry returns every interprocedural analyzer with the packages
// its findings gate.
//
//   - keytaint: everywhere key material lives or flows — the key hierarchy
//     (crypto, lkh), the protocol engines, replication (K_r), and the wire
//     layer whose Marshal methods carry key bytes by summary.
//   - noncereuse: the packages that seal freshness chains — the protocol
//     engines, the replica delta stream, and the legacy baseline is exempt
//     (its fixed-nonce bug is the documented vulnerability, caught by its
//     own corpus).
//   - lockorder: every package that locks — the annotated hierarchies and
//     their callers, plus every package that also seals or sends under a
//     lock, including legacy, whose frozen baseline documents its
//     exemptions.
func ModuleRegistry() []ScopedModuleAnalyzer {
	return []ScopedModuleAnalyzer{
		{KeyTaint, []string{pkgCrypto, pkgCore, pkgMember, pkgGroup, pkgWire, pkgLegacy, pkgReplica, pkgLkh}},
		{NonceReuse, []string{pkgCore, pkgMember, pkgGroup, pkgReplica}},
		{LockOrder, []string{pkgCore, pkgMember, pkgGroup, pkgTransport, pkgLegacy, pkgReplica, pkgLkh}},
	}
}

// All returns the unit analyzers without scope, for tests and tools that
// want to run one analyzer over arbitrary code.
func All() []*Analyzer {
	return []*Analyzer{CryptoRand, CachedCipher, WireExhaustive}
}

// AllModule returns the module analyzers without scope.
func AllModule() []*ModuleAnalyzer {
	return []*ModuleAnalyzer{KeyTaint, NonceReuse, LockOrder}
}
