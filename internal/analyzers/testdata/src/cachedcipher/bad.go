package cachedcipher

import (
	"enclaves/internal/crypto"
)

// sealPerMessage pays the AES key schedule and GCM table setup on every
// message — the exact cost PR 3 removed from the hot path.
func sealPerMessage(k crypto.Key, msgs [][]byte) ([][]byte, error) {
	out := make([][]byte, 0, len(msgs))
	for _, m := range msgs {
		box, err := crypto.Seal(k, m, nil) // want `one-shot crypto\.Seal`
		if err != nil {
			return nil, err
		}
		out = append(out, box)
	}
	return out, nil
}

func sealKey(k crypto.Key, p crypto.Plaintext) ([]byte, error) {
	return crypto.SealPlaintext(k, p, nil) // want `one-shot crypto\.SealPlaintext`
}

func openOnce(k crypto.Key, box []byte) ([]byte, error) {
	return crypto.Open(k, box, nil) // want `one-shot crypto\.Open`
}
