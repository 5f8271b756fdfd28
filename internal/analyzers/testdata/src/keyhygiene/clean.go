package keyhygiene

import (
	"fmt"

	"enclaves/internal/crypto"
)

// report logs only redacted forms: Key's own String, the fingerprint, and
// non-secret names.
func report(k crypto.Key, keyID string) Event {
	fmt.Printf("installed %s (id %s)\n", k, keyID)
	fmt.Printf("fingerprint: %x\n", k.Fingerprint())
	fmt.Printf("key: %x %#v\n", k, k) // Key prints its fingerprint under every verb
	return Event{
		Kind:   "rekey",
		Detail: k.String(),
	}
}

// seal keeps raw bytes inside the crypto boundary: passing key material to
// the AEAD is the point, not a leak.
func seal(k crypto.Key, plain []byte) ([]byte, error) {
	return crypto.Seal(k, plain, nil)
}

// Published holds its key in an exported field, where fmt calls Key's
// Format; a list of them, recursive, holds nothing unexported.
type Published struct {
	Key  crypto.Key
	Next *Published
}

// describe prints keys fmt formats through Key's Format.
func describe(p Published, k crypto.Key, ks []crypto.Key) {
	fmt.Printf("%v %+v %#v %x\n", p, &p, k, ks)
}
