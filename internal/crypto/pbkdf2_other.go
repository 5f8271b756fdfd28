//go:build !amd64

package crypto

// haveSHANI is false off amd64: pbkdf2 runs the portable HMAC loop.
const haveSHANI = false

func pbkdf2Rounds(istate, ostate, u, t *[8]uint32, n int) { panic("crypto: pbkdf2Rounds off amd64") }
