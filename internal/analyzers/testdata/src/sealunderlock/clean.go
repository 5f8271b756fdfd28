package sealunderlock

import (
	"enclaves/internal/wire"
)

// sealOffLock is the PR 2 fix shape: snapshot under the lock, release, then
// do the AEAD work and the send with nothing held.
func (h *hub) sealOffLock(env wire.Envelope, plain []byte) error {
	h.mu.Lock()
	cipher := h.cipher
	conn := h.conn
	h.mu.Unlock()

	box, err := cipher.Seal(plain, nil)
	if err != nil {
		return err
	}
	env.Payload = box
	return conn.Send(env)
}

// enqueueLocked is the legitimate *Locked shape: it only stages work; a
// writer seals and sends after the caller releases the lock.
func (h *hub) enqueueLocked(pending *[]wire.Envelope, env wire.Envelope) {
	*pending = append(*pending, env)
}

// flushAsync launches the writer: the goroutine body runs without the
// spawner's lock, so sealing and sending there is exactly right.
func (h *hub) flushAsync(envs []wire.Envelope) {
	h.mu.Lock()
	conn := h.conn
	h.mu.Unlock()
	go func() {
		for _, e := range envs {
			_ = conn.Send(e)
		}
	}()
}

// pushLocked is the outbox shape: it only stages the frame and wakes the
// connection's writer, which pulls and seals after the caller releases its
// lock.
func (h *hub) pushLocked(pending *[]wire.Envelope, env wire.Envelope) {
	*pending = append(*pending, env)
	h.conn.Wake()
}
