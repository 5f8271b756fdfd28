// Package noncereuse seeds cross-function nonce-lifecycle violations: a
// helper that seals its nonce argument gets a consuming summary, so reuse
// and unproved freshness surface at call sites, a call edge away from the
// seal.
package noncereuse

import "enclaves/internal/crypto"

// delta is a sealed-stream frame: Next is the freshness chain link
// (checked by the Next/NNext convention), Echo deliberately repeats the
// peer's last nonce and is not checked.
type delta struct {
	Echo crypto.Nonce
	Next crypto.Nonce
}

// session tracks the chain head between frames.
type session struct {
	last crypto.Nonce
}

// stamp stores its nonce argument into the freshness field: the engine
// summarizes it as consuming parameter 1, so every caller must prove
// freshness per call.
func stamp(d *delta, n crypto.Nonce) {
	d.Next = n
}

// replayWindow seals two frames with one draw: the second stamp reuses a
// consumed nonce through the callee's summary.
func replayWindow() (delta, delta, error) {
	n, err := crypto.NewNonce()
	if err != nil {
		return delta{}, delta{}, err
	}
	var a, b delta
	stamp(&a, n)
	stamp(&b, n) // want `already used as a freshness value`
	return a, b, nil
}

// pickNonce returns a fresh draw on one path and a zero nonce on the
// other, so its summary cannot prove freshness.
func pickNonce(retry bool) (crypto.Nonce, error) {
	if retry {
		return crypto.Nonce{}, nil
	}
	return crypto.NewNonce()
}

// sealRetry seals a value that is fresh on only one path of its producer.
func sealRetry(d *delta) error {
	n, err := pickNonce(true)
	if err != nil {
		return err
	}
	stamp(d, n) // want `not proved fresh`
	return nil
}

// resendLast reseals the stored chain head instead of advancing it: the
// frame's freshness proof is a replayed value.
func (s *session) resendLast(d *delta) {
	d.Echo = s.last
	d.Next = s.last // want `not proved fresh`
}
