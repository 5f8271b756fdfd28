package keyhygiene

import "fmt"

// Event mirrors the audit-event shape: exported, retained, serialized.
type Event struct {
	Kind   string
	Detail string
}

func leakNamed(groupKey []byte) string {
	fmt.Printf("debug: %v\n", groupKey) // want `key material groupKey`
	return string(groupKey)             // want `key material groupKey converted to string`
}

func leakEvent(sessionKey []byte) Event {
	return Event{
		Kind:   "rekey",
		Detail: string(sessionKey), // want `reaches a retained keyhygiene\.Event event` `key material sessionKey converted to string`
	}
}

type logger struct{}

func (logger) auditf(format string, args ...any) {}

// leakHelper leaks through a printf-shaped helper.
func leakHelper(lg logger, sessionKey []byte) {
	lg.auditf("rotating %v", sessionKey) // want `key material sessionKey`
}
