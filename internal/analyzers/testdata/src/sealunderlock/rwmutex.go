package sealunderlock

import (
	"sync"

	"enclaves/internal/crypto"
)

// view is read-mostly state behind an RWMutex.
type view struct {
	mu     sync.RWMutex
	closed bool
	cipher *crypto.Cipher
}

// sealUnderRead holds the read lock across the seal: readers do not block
// each other, but every writer waits behind every in-flight seal.
func (v *view) sealUnderRead(plain []byte) ([]byte, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.cipher.Seal(plain, nil) // want `AEAD Cipher\.Seal while holding v\.mu`
}

// sealAfterBarrier is group.sealFrame's shape: RLock/RUnlock only waits out
// a writer and reads a flag, and the seal runs with nothing held.
func (v *view) sealAfterBarrier(plain []byte) ([]byte, error) {
	v.mu.RLock()
	closed, cipher := v.closed, v.cipher
	v.mu.RUnlock()
	if closed {
		return nil, nil
	}
	return cipher.Seal(plain, nil)
}
