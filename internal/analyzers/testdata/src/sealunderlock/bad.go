package sealunderlock

import (
	"sync"

	"enclaves/internal/crypto"
	"enclaves/internal/transport"
	"enclaves/internal/wire"
)

type hub struct {
	mu     sync.Mutex
	cipher *crypto.Cipher
	conn   transport.Conn
	peers  map[string]transport.Conn
}

// sealUnderLock is the PR 2 bug shape: AES-GCM work serialized behind the
// group lock, with the defer keeping it held for the whole body.
func (h *hub) sealUnderLock(plain []byte) ([]byte, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.cipher.Seal(plain, nil) // want `AEAD Cipher\.Seal while holding h\.mu`
}

// sealPlaintextUnderLock seals a key-carrying plaintext under the lock.
func (h *hub) sealPlaintextUnderLock(p crypto.Plaintext) ([]byte, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.cipher.SealPlaintext(p, nil) // want `AEAD Cipher\.SealPlaintext while holding h\.mu`
}

// openOneShotUnderLock holds the lock across a one-shot AEAD open.
func (h *hub) openOneShotUnderLock(k crypto.Key, box []byte) ([]byte, error) {
	h.mu.Lock()
	plain, err := crypto.Open(k, box, nil) // want `one-shot crypto\.Open while holding h\.mu`
	h.mu.Unlock()
	return plain, err
}

// sendUnderLock blocks every other member behind one peer's TCP window.
func (h *hub) sendUnderLock(env wire.Envelope) error {
	h.mu.Lock()
	err := h.conn.Send(env) // want `transport Send while holding h\.mu`
	h.mu.Unlock()
	return err
}

// broadcastAdminLocked reproduces the original seal-under-Leader.mu bug: no
// Lock() in sight, but the *Locked suffix says the caller already holds one.
func (h *hub) broadcastAdminLocked(enc *transport.Encoded) {
	for _, c := range h.peers {
		_ = c.SendBatch([]transport.Outgoing{{Enc: enc}}) // want `transport SendBatch inside broadcastAdminLocked`
	}
}

// drainLocked runs an outbox's pull hook straight from under the caller's
// lock: the hook seals every body it drains, so this is the
// seal-under-Leader.mu bug through the writer's own entry point.
func (h *hub) drainLocked(pull transport.Pull) []transport.Outgoing {
	return pull(nil) // want `transport Pull hook inside drainLocked`
}

// drainUnderLock holds the lock it took itself across the pull.
func (h *hub) drainUnderLock(pull transport.Pull) {
	h.mu.Lock()
	defer h.mu.Unlock()
	_ = pull(nil) // want `transport Pull hook while holding h\.mu`
}
