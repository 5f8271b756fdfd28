package analyzers

// CachedCipher flags one-shot crypto.Seal / SealPlaintext / Open calls in
// non-test code. The one-shot helpers rebuild the AES key schedule and GCM tables on
// every call; PR 3 measured the cached crypto.Cipher at ~3x the one-shot
// SealOpen throughput, so hot-path packages must hold a Cipher instead.
var CachedCipher = &Analyzer{
	Name: "cachedcipher",
	Doc:  "require cached crypto.Cipher instead of one-shot crypto.Seal/Open on hot paths",
	Run:  eachUnit(runCachedCipher),
}

func runCachedCipher(p *Pass, u *Unit) {
	forEachNonTestCall(u, func(site callSite) {
		f := funcOf(u.Info, site.call)
		if f == nil || !isPkgFunc(f, cryptoPath, f.Name()) {
			return
		}
		if n := f.Name(); n != "Seal" && n != "SealPlaintext" && n != "Open" {
			return
		}
		p.Reportf(site.call.Pos(),
			"one-shot crypto.%s rebuilds the AES key schedule and GCM tables per call; hold a *crypto.Cipher (crypto.NewCipher) and call its %s method",
			f.Name(), f.Name())
	})
}
