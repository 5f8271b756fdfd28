package crypto

// pbkdf2Rounds runs n PBKDF2-HMAC-SHA256 iterations in registers: U =
// HMAC(U), T ^= U, with the HMAC's ipad and opad chaining values given as
// istate and ostate. u and t hold U and T as big-endian words, on entry
// and on return. It needs haveSHANI.
//
//go:noescape
func pbkdf2Rounds(istate, ostate, u, t *[8]uint32, n int)

func cpuid(leaf uint32) (eax, ebx, ecx uint32)

// haveSHANI reports whether pbkdf2Rounds runs here: the SHA extensions
// (CPUID leaf 7 EBX bit 29), SSSE3 and SSE4.1 (leaf 1 ECX bits 9 and 19).
var haveSHANI = func() bool {
	if maxLeaf, _, _ := cpuid(0); maxLeaf < 7 {
		return false
	}
	_, _, ecx1 := cpuid(1)
	_, ebx7, _ := cpuid(7)
	return ebx7&(1<<29) != 0 && ecx1&(1<<9) != 0 && ecx1&(1<<19) != 0
}()
