package analyzers

// KeyTaint keeps raw key material out of observable channels. crypto.Key
// redacts itself (String prints a fingerprint), but Key.Bytes() and
// key-named byte slices are raw secrets: one fmt.Printf or audit-event copy
// puts P_a/K_a — the values the paper's PVS proofs guard — into logs,
// metrics, or crash dumps. keytaint follows key-derived bytes from the
// source, directly or through any chain of module-internal calls — helper
// wrappers, struct-building marshal methods, value plumbing through returns
// and slices — and reports when they reach an observable channel:
//
//   - logging sinks (fmt/log/slog, printf-shaped helpers) and metrics;
//   - error values (fmt.Errorf via the fmt sink, errors.New explicitly) —
//     errors escape into logs and API responses;
//   - audit/metrics *Event struct literals (exported and retained);
//   - unsealed wire frames: bytes stored into a wire.Envelope Payload that
//     are key-derived and did not pass through an AEAD Seal.
//
// Sources are crypto.Key.Bytes(), byte sequences named like key material
// ("key", "secret", "password"), and anything a function summary proves is
// derived from them — which is how the LKH node keys, the replication key
// K_r material, and config secrets are all covered without per-package
// special cases: their bytes only ever appear via Key.Bytes() or key-named
// values, and the summaries carry the taint from there. Hashing and AEAD
// sealing sanitize (external callees are clean by default); encodings,
// formatting, append/copy, and string conversion propagate.
//
// Two local checks ride along in the same pass: crypto.Key formatted with
// %x/%X/%#v (which bypass its String method and reflect over the unexported
// key bytes), and key material converted to string. See taint.go for the
// engine.
var KeyTaint = &Analyzer{
	Name: "keytaint",
	Doc:  "forbid raw or key-derived bytes in logs, errors, metrics, audit events, string conversions, or unsealed wire frames, across function boundaries",
	Run:  runKeyTaint,
}

func runKeyTaint(p *Pass) {
	e := &taintEngine{solver[*taintSummary]{Pass: p}}
	e.solve(e.analyze)
}
