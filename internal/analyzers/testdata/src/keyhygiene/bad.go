package keyhygiene

import (
	"fmt"
	"log"

	"enclaves/internal/crypto"
)

// Event mirrors the audit-event shape: exported, retained, serialized.
type Event struct {
	Kind   string
	Detail string
}

func dump(k crypto.Key) {
	fmt.Printf("group key: %x\n", k)     // want `bypasses its redacting String method`
	fmt.Printf("group key: %#v\n", k)    // want `bypasses its redacting String method`
	fmt.Println(k.Bytes())               // want `raw Key\.Bytes\(\)`
	log.Printf("session: %v", k.Bytes()) // want `raw Key\.Bytes\(\)`
}

func leakNamed(k crypto.Key) string {
	groupKey := k.Bytes()
	fmt.Printf("debug: %v\n", groupKey) // want `key material groupKey`
	return string(groupKey)             // want `key material groupKey converted to string`
}

func leakEvent(k crypto.Key) Event {
	return Event{
		Kind:   "rekey",
		Detail: string(k.Bytes()), // want `reaches a retained keyhygiene\.Event event` `raw Key\.Bytes\(\) converted to string`
	}
}

type logger struct{}

func (logger) auditf(format string, args ...any) {}

// leakHelper leaks through a printf-shaped helper.
func leakHelper(lg logger, sessionKey []byte) {
	lg.auditf("rotating %v", sessionKey) // want `key material sessionKey`
}
