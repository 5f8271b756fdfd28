package analyzers

import (
	"go/ast"
	"go/types"
	"strings"
)

// CryptoRand forbids math/rand — and seeding any PRNG from the clock — in
// the protocol packages. Keys, nonces, and challenges must come from
// crypto/rand; a predictable source breaks the paper's secrecy invariants
// outright. The seeded faultnet adversary and _test.go files are exempt:
// deterministic randomness is the point there.
var CryptoRand = &Analyzer{
	Name: "cryptorand",
	Doc:  "forbid math/rand and clock-seeded randomness in protocol packages",
	Run:  eachUnit(runCryptoRand),
}

func runCryptoRand(p *Pass, u *Unit) {
	for _, f := range u.Files {
		if u.IsTest(f) {
			continue
		}
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == "math/rand" || path == "math/rand/v2" {
				p.Reportf(imp.Pos(), "import of %s in a protocol package: crypto material must come from crypto/rand", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := calleeName(call)
			if name != "Seed" && name != "NewSource" {
				return true
			}
			if subtreeCallsTimeNow(u.Info, call) {
				p.Reportf(call.Pos(), "%s seeded from the clock: wall time is guessable, so the stream is predictable; use crypto/rand", name)
			}
			return true
		})
	}
}

// calleeName returns the rightmost identifier of a call's function
// expression ("rand.NewSource" -> "NewSource"), or "".
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// subtreeCallsTimeNow reports whether any argument of call invokes time.Now.
func subtreeCallsTimeNow(info *types.Info, call *ast.CallExpr) bool {
	found := false
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			inner, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if f := funcOf(info, inner); isPkgFunc(f, "time", "Now") {
				found = true
				return false
			}
			return true
		})
	}
	return found
}
