package keytaint

import (
	"log"

	"enclaves/internal/crypto"
)

// logSafely logs only the key's fingerprint, which is not key material.
func logSafely(k crypto.Key) {
	log.Printf("rotated to %x", k.Fingerprint())
}

// logFingerprint feeds the func-valued sink only non-secret values: the
// printf-shaped-value detector must not fire on clean arguments.
func logFingerprint(c config, k crypto.Key, keyID []byte) {
	c.logf("rotated to %s (%x)", k, keyID)
}

// recordEpoch retains only non-key data in the event.
func recordEpoch(epoch int) RekeyEvent {
	return RekeyEvent{Epoch: epoch, Detail: "rotation complete"}
}
