// Package keytaint seeds cross-function key-material flows: every finding
// in this file travels through at least one call edge (a return value, a
// sink buried in a callee, or a struct carrier) before it becomes
// observable. Direct sinks live in the keyhygiene corpus.
package keytaint

import (
	"errors"
	"log"

	"enclaves/internal/crypto"
	"enclaves/internal/wire"
)

// exportKey launders raw key bytes through a return value: the call site
// below is neither Key.Bytes() nor a key-named identifier, so only the
// function summary connects it to the source.
func exportKey(k crypto.Key) []byte {
	return k.Bytes()
}

// describe is a transparent transform two characters away from a leak.
func describe(b []byte) string {
	return string(b)
}

// audit is a sink one frame down: its parameter reaches log.Printf, so the
// engine gives it a sink summary and leaks report at its callers.
func audit(detail []byte) {
	log.Printf("audit: %v", detail)
}

// dumpState logs material a helper extracted.
func dumpState(k crypto.Key) {
	material := exportKey(k)
	log.Printf("resume state: %v", material) // want `key material returned by exportKey reaches`
}

// auditRotation leaks through a callee's sink.
func auditRotation(k crypto.Key) {
	material := exportKey(k)
	audit(material) // want `via audit`
}

// rejectKey wraps key-derived bytes into an error value, which escapes into
// logs and API responses.
func rejectKey(k crypto.Key) error {
	material := exportKey(k)
	return errors.New(describe(material)) // want `an error value \(errors\.New\)`
}

// RekeyEvent mirrors the audit-event shape: exported, retained, serialized.
type RekeyEvent struct {
	Epoch  int
	Detail string
}

// recordRekey copies laundered key bytes into a retained event.
func recordRekey(k crypto.Key, epoch int) RekeyEvent {
	material := exportKey(k)
	return RekeyEvent{
		Epoch:  epoch,
		Detail: describe(material), // want `a retained .*RekeyEvent event`
	}
}

// config carries a printf-shaped func field — the repo's logging idiom. No
// *types.Func exists at its call sites, so the sink is recognized by the
// field's name and type instead.
type config struct {
	logf func(format string, args ...any)
}

// traceKey leaks laundered key bytes through the func-valued field.
func traceKey(c config, k crypto.Key) {
	c.logf("session key: %v", exportKey(k)) // want `key material returned by exportKey reaches a diagnostic log line \(logf\)`
}

// frame is a builder struct: storing key bytes into it taints whatever its
// encode method returns, through the method summary.
type frame struct {
	tag  byte
	body []byte
}

func (f *frame) encode() []byte {
	out := []byte{f.tag}
	return append(out, f.body...)
}

// debugFrame ships key bytes in a cleartext envelope: the taint rides the
// builder through encode's summary into the unsealed payload.
func debugFrame(k crypto.Key) wire.Envelope {
	var f frame
	f.tag = 0x7f
	f.body = exportKey(k)
	return wire.Envelope{Payload: f.encode()} // want `an unsealed wire frame payload`
}
