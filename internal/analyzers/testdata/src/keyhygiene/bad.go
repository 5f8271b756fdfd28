package keyhygiene

import (
	"fmt"

	"enclaves/internal/crypto"
)

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

// material holds a key in an unexported field: fmt cannot call Key's
// Format there and prints the raw bytes.
type material struct{ k crypto.Key }

// holder reaches the key through an exported pointer first.
type holder struct{ M *material }

// chain is recursive and holds its keys unexported.
type chain struct {
	Next *chain
	keys map[string]crypto.Key
}

// pair holds the same type, which keeps its key exported, once under an
// exported field and once under an unexported one.
type pair struct {
	Pub  Published
	priv Published
}

// leakHidden prints keys a struct hides from Key's Format.
func leakHidden(m material, h holder, c *chain, p pair) error {
	fmt.Printf("%v %+v %v\n", m, h, p)            // want `keyhygiene\.material holds a crypto\.Key in an unexported field` `keyhygiene\.holder holds a crypto\.Key` `keyhygiene\.pair holds a crypto\.Key`
	return fmt.Errorf("chain %v", []*chain{c, c}) // want `\[\]\*keyhygiene\.chain holds a crypto\.Key`
}
