#include "textflag.h"

// PBKDF2-HMAC-SHA256's U_2…U_c loop on the SHA extensions, after the
// standard library's blockSHANI (crypto/internal/fips140/sha256). Every
// block it compresses is 32 message bytes behind a 64-byte key block, so
// the padding (0x80000000, zeros, bit length 768) is fixed and the words
// never touch memory. SSE2, SSSE3, SSE4.1 and SHA only; X15 is not used.
//
// Registers: X1/X2 working state in SHA256RNDS2's ABEF/CDGH order;
// X3..X6 the message schedule, four words each; X0 and X7 scratch;
// X8/X9 the ipad and X10/X11 the opad chaining value, ABEF/CDGH;
// X12/X13 T in word order; AX the round constants; CX iterations left.

// ROUND4 runs four rounds on the schedule words m plus the constants at
// k(AX).
#define ROUND4(m, k) \
	MOVO        m, X0; \
	PADDD       k(AX), X0; \
	SHA256RNDS2 X0, X1, X2; \
	PSHUFD      $0x0e, X0, X0; \
	SHA256RNDS2 X0, X2, X1

// ROUND4MSG is ROUND4 that also finishes the schedule words next from m
// and prev (SHA256MSG2).
#define ROUND4MSG(m, prev, next, k) \
	MOVO        m, X0; \
	PADDD       k(AX), X0; \
	SHA256RNDS2 X0, X1, X2; \
	MOVO        m, X7; \
	PALIGNR     $4, prev, X7; \
	PADDD       X7, next; \
	SHA256MSG2  m, next; \
	PSHUFD      $0x0e, X0, X0; \
	SHA256RNDS2 X0, X2, X1

// COMPRESS runs the 64 rounds of one block, message words in X3..X6, on
// the state in X1/X2. The caller adds the chaining value.
#define COMPRESS \
	ROUND4(X3, 0x00); \
	ROUND4(X4, 0x10); SHA256MSG1 X4, X3; \
	ROUND4(X5, 0x20); SHA256MSG1 X5, X4; \
	ROUND4MSG(X6, X5, X3, 0x30); SHA256MSG1 X6, X5; \
	ROUND4MSG(X3, X6, X4, 0x40); SHA256MSG1 X3, X6; \
	ROUND4MSG(X4, X3, X5, 0x50); SHA256MSG1 X4, X3; \
	ROUND4MSG(X5, X4, X6, 0x60); SHA256MSG1 X5, X4; \
	ROUND4MSG(X6, X5, X3, 0x70); SHA256MSG1 X6, X5; \
	ROUND4MSG(X3, X6, X4, 0x80); SHA256MSG1 X3, X6; \
	ROUND4MSG(X4, X3, X5, 0x90); SHA256MSG1 X4, X3; \
	ROUND4MSG(X5, X4, X6, 0xa0); SHA256MSG1 X5, X4; \
	ROUND4MSG(X6, X5, X3, 0xb0); SHA256MSG1 X6, X5; \
	ROUND4MSG(X3, X6, X4, 0xc0); SHA256MSG1 X3, X6; \
	ROUND4MSG(X4, X3, X5, 0xd0); \
	ROUND4MSG(X5, X4, X6, 0xe0); \
	ROUND4(X6, 0xf0)

// TOSTATE turns H0..H3 in X1 and H4..H7 in X2 into ABEF/CDGH.
#define TOSTATE \
	PSHUFD  $0xb1, X1, X1; \
	PSHUFD  $0x1b, X2, X2; \
	MOVO    X1, X7; \
	PALIGNR $8, X2, X1; \
	PBLENDW $0xf0, X7, X2

// HMACHALF compresses the block X3, X4, padding under the chaining value
// ca/cb and leaves the digest in word order in X3/X4: the next block's
// first 32 bytes.
#define HMACHALF(ca, cb) \
	MOVO    ca, X1; \
	MOVO    cb, X2; \
	MOVOU   pad768<>+0x00(SB), X5; \
	MOVOU   pad768<>+0x10(SB), X6; \
	COMPRESS; \
	PADDD   ca, X1; \
	PADDD   cb, X2; \
	PSHUFD  $0x1b, X1, X1; \
	PSHUFD  $0xb1, X2, X2; \
	MOVO    X1, X3; \
	PBLENDW $0xf0, X2, X3; \
	MOVO    X2, X4; \
	PALIGNR $8, X1, X4

// func pbkdf2Rounds(istate, ostate, u, t *[8]uint32, n int)
TEXT ·pbkdf2Rounds(SB), NOSPLIT, $0-40
	MOVQ  istate+0(FP), DI
	MOVQ  ostate+8(FP), SI
	MOVQ  u+16(FP), DX
	MOVQ  t+24(FP), BX
	MOVQ  n+32(FP), CX
	TESTQ CX, CX
	JLE   done
	LEAQ  K256<>(SB), AX

	MOVOU (DI), X1
	MOVOU 16(DI), X2
	TOSTATE
	MOVO  X1, X8
	MOVO  X2, X9
	MOVOU (SI), X1
	MOVOU 16(SI), X2
	TOSTATE
	MOVO  X1, X10
	MOVO  X2, X11
	MOVOU (DX), X3
	MOVOU 16(DX), X4
	MOVOU (BX), X12
	MOVOU 16(BX), X13

loop:
	HMACHALF(X8, X9)
	HMACHALF(X10, X11)
	PXOR X3, X12
	PXOR X4, X13
	DECQ CX
	JNZ  loop

	MOVOU X3, (DX)
	MOVOU X4, 16(DX)
	MOVOU X12, (BX)
	MOVOU X13, 16(BX)

done:
	RET

// func cpuid(leaf uint32) (eax, ebx, ecx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-20
	MOVL leaf+0(FP), AX
	XORL CX, CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	RET

// The padding words of a 96-byte message: 0x80000000, six zeros, 768.
DATA pad768<>+0x00(SB)/4, $0x80000000
DATA pad768<>+0x04(SB)/4, $0
DATA pad768<>+0x08(SB)/4, $0
DATA pad768<>+0x0c(SB)/4, $0
DATA pad768<>+0x10(SB)/4, $0
DATA pad768<>+0x14(SB)/4, $0
DATA pad768<>+0x18(SB)/4, $0
DATA pad768<>+0x1c(SB)/4, $768
GLOBL pad768<>(SB), RODATA|NOPTR, $32

// SHA-256's round constants K_0..K_63 (FIPS 180-4, 4.2.2).
DATA K256<>+0x00(SB)/4, $0x428a2f98
DATA K256<>+0x04(SB)/4, $0x71374491
DATA K256<>+0x08(SB)/4, $0xb5c0fbcf
DATA K256<>+0x0c(SB)/4, $0xe9b5dba5
DATA K256<>+0x10(SB)/4, $0x3956c25b
DATA K256<>+0x14(SB)/4, $0x59f111f1
DATA K256<>+0x18(SB)/4, $0x923f82a4
DATA K256<>+0x1c(SB)/4, $0xab1c5ed5
DATA K256<>+0x20(SB)/4, $0xd807aa98
DATA K256<>+0x24(SB)/4, $0x12835b01
DATA K256<>+0x28(SB)/4, $0x243185be
DATA K256<>+0x2c(SB)/4, $0x550c7dc3
DATA K256<>+0x30(SB)/4, $0x72be5d74
DATA K256<>+0x34(SB)/4, $0x80deb1fe
DATA K256<>+0x38(SB)/4, $0x9bdc06a7
DATA K256<>+0x3c(SB)/4, $0xc19bf174
DATA K256<>+0x40(SB)/4, $0xe49b69c1
DATA K256<>+0x44(SB)/4, $0xefbe4786
DATA K256<>+0x48(SB)/4, $0x0fc19dc6
DATA K256<>+0x4c(SB)/4, $0x240ca1cc
DATA K256<>+0x50(SB)/4, $0x2de92c6f
DATA K256<>+0x54(SB)/4, $0x4a7484aa
DATA K256<>+0x58(SB)/4, $0x5cb0a9dc
DATA K256<>+0x5c(SB)/4, $0x76f988da
DATA K256<>+0x60(SB)/4, $0x983e5152
DATA K256<>+0x64(SB)/4, $0xa831c66d
DATA K256<>+0x68(SB)/4, $0xb00327c8
DATA K256<>+0x6c(SB)/4, $0xbf597fc7
DATA K256<>+0x70(SB)/4, $0xc6e00bf3
DATA K256<>+0x74(SB)/4, $0xd5a79147
DATA K256<>+0x78(SB)/4, $0x06ca6351
DATA K256<>+0x7c(SB)/4, $0x14292967
DATA K256<>+0x80(SB)/4, $0x27b70a85
DATA K256<>+0x84(SB)/4, $0x2e1b2138
DATA K256<>+0x88(SB)/4, $0x4d2c6dfc
DATA K256<>+0x8c(SB)/4, $0x53380d13
DATA K256<>+0x90(SB)/4, $0x650a7354
DATA K256<>+0x94(SB)/4, $0x766a0abb
DATA K256<>+0x98(SB)/4, $0x81c2c92e
DATA K256<>+0x9c(SB)/4, $0x92722c85
DATA K256<>+0xa0(SB)/4, $0xa2bfe8a1
DATA K256<>+0xa4(SB)/4, $0xa81a664b
DATA K256<>+0xa8(SB)/4, $0xc24b8b70
DATA K256<>+0xac(SB)/4, $0xc76c51a3
DATA K256<>+0xb0(SB)/4, $0xd192e819
DATA K256<>+0xb4(SB)/4, $0xd6990624
DATA K256<>+0xb8(SB)/4, $0xf40e3585
DATA K256<>+0xbc(SB)/4, $0x106aa070
DATA K256<>+0xc0(SB)/4, $0x19a4c116
DATA K256<>+0xc4(SB)/4, $0x1e376c08
DATA K256<>+0xc8(SB)/4, $0x2748774c
DATA K256<>+0xcc(SB)/4, $0x34b0bcb5
DATA K256<>+0xd0(SB)/4, $0x391c0cb3
DATA K256<>+0xd4(SB)/4, $0x4ed8aa4a
DATA K256<>+0xd8(SB)/4, $0x5b9cca4f
DATA K256<>+0xdc(SB)/4, $0x682e6ff3
DATA K256<>+0xe0(SB)/4, $0x748f82ee
DATA K256<>+0xe4(SB)/4, $0x78a5636f
DATA K256<>+0xe8(SB)/4, $0x84c87814
DATA K256<>+0xec(SB)/4, $0x8cc70208
DATA K256<>+0xf0(SB)/4, $0x90befffa
DATA K256<>+0xf4(SB)/4, $0xa4506ceb
DATA K256<>+0xf8(SB)/4, $0xbef9a3f7
DATA K256<>+0xfc(SB)/4, $0xc67178f2
GLOBL K256<>(SB), RODATA|NOPTR, $256
