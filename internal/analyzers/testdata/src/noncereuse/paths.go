package noncereuse

import "enclaves/internal/crypto"

// The paths a construct may skip: each function below draws its nonce only
// inside a construct that can run none of its bodies, so the store after
// it sees the zero nonce on at least one path.

// noDefault draws in two cases of a switch with no default: a third kind
// falls through with the nonce never drawn.
func noDefault(d *delta, kind int) {
	var n crypto.Nonce
	switch kind {
	case 0:
		n, _ = crypto.NewNonce()
	case 1:
		n, _ = crypto.NewNonce()
	}
	d.Next = n // want "not proved fresh"
}

// zeroTrip draws inside a counted loop that runs no times when k is 0.
func zeroTrip(d *delta, k int) {
	var n crypto.Nonce
	for i := 0; i < k; i++ {
		n, _ = crypto.NewNonce()
	}
	d.Next = n // want "not proved fresh"
}

// emptyRange draws inside a range over a slice that may be empty.
func emptyRange(d *delta, xs []int) {
	var n crypto.Nonce
	for range xs {
		n, _ = crypto.NewNonce()
	}
	d.Next = n // want "not proved fresh"
}

// withDefault draws on every arm, the default included: proved fresh.
func withDefault(d *delta, kind int) {
	var n crypto.Nonce
	switch kind {
	case 0:
		n, _ = crypto.NewNonce()
	default:
		n, _ = crypto.NewNonce()
	}
	d.Next = n
}
