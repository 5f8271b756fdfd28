// Package keytaint seeds the sinks a key-named byte sequence must not
// reach: an error value, a retained event, a printf-shaped func value, and
// a log line through a password-named value.
package keytaint

import (
	"errors"
	"log"
)

// rejectKey wraps key bytes into an error value, which escapes into logs
// and API responses.
func rejectKey(sessionKey []byte) error {
	return errors.New(string(sessionKey)) // want `an error value \(errors\.New\)` `key material sessionKey converted to string`
}

// RekeyEvent mirrors the audit-event shape: exported, retained, serialized.
type RekeyEvent struct {
	Epoch  int
	Detail string
}

// recordRekey copies key bytes into a retained event.
func recordRekey(groupKey []byte, epoch int) RekeyEvent {
	return RekeyEvent{
		Epoch:  epoch,
		Detail: string(groupKey), // want `a retained .*RekeyEvent event` `converted to string`
	}
}

// config carries a printf-shaped func field — the repo's logging idiom. No
// *types.Func exists at its call sites, so the sink is recognized by the
// field's name and type instead.
type config struct {
	logf func(format string, args ...any)
}

// traceKey leaks key bytes through the func-valued field.
func traceKey(c config, sessionKey []byte) {
	c.logf("session key: %v", sessionKey) // want `key material sessionKey reaches a diagnostic log line \(logf\)`
}

// logPassword leaks a password-derived secret.
func logPassword(password []byte) {
	log.Printf("derived from %s", password) // want `key material password reaches log\.Printf`
}
