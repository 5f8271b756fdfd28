package crypto

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewKeyDistinct(t *testing.T) {
	k1, err := NewKey()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := NewKey()
	if err != nil {
		t.Fatal(err)
	}
	if k1.Equal(k2) {
		t.Error("two fresh keys are equal")
	}
	if !k1.Valid() || !k2.Valid() {
		t.Error("fresh keys must be valid")
	}
}

func TestKeyFromBytes(t *testing.T) {
	raw := bytes.Repeat([]byte{7}, KeySize)
	k, err := KeyFromBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(k.bytes[:], raw) {
		t.Error("KeyFromBytes round trip failed")
	}
	if _, err := KeyFromBytes(raw[:KeySize-1]); err == nil {
		t.Error("short key accepted")
	}
	if _, err := KeyFromBytes(append(raw, 0)); err == nil {
		t.Error("long key accepted")
	}
}

func TestAppendKeyIsACopy(t *testing.T) {
	k, _ := NewKey()
	want := k.bytes
	var p Plaintext
	p.AppendKey(k)
	p.b[0] ^= 0xFF
	if k.bytes != want {
		t.Error("AppendKey exposes the key's storage")
	}
	k.Zero()
	if p.b[1] != want[1] {
		t.Error("zeroing the key changed the plaintext")
	}
}

func TestKeyEqual(t *testing.T) {
	raw := bytes.Repeat([]byte{3}, KeySize)
	k1, _ := KeyFromBytes(raw)
	k2, _ := KeyFromBytes(raw)
	if !k1.Equal(k2) {
		t.Error("equal keys not equal")
	}
	var invalid Key
	if k1.Equal(invalid) {
		t.Error("valid equals invalid")
	}
	var invalid2 Key
	if !invalid.Equal(invalid2) {
		t.Error("two invalid keys should compare equal")
	}
}

func TestKeyZero(t *testing.T) {
	k, _ := NewKey()
	k.Zero()
	if k.Valid() {
		t.Error("zeroed key still valid")
	}
	if k.bytes != [KeySize]byte{} {
		t.Error("zeroed key retains material")
	}
}

func TestKeyStringHidesMaterial(t *testing.T) {
	raw := bytes.Repeat([]byte{0xAB}, KeySize)
	k, _ := KeyFromBytes(raw)
	if strings.Contains(k.String(), hex.EncodeToString(raw[:8])) {
		t.Error("String leaks key material")
	}
	var invalid Key
	if invalid.String() != "Key(invalid)" {
		t.Errorf("invalid key String = %q", invalid.String())
	}
}

// TestKeyPrintsNoKeyUnderAnyVerb: every verb prints String's fingerprint,
// among them %x, %X and %#v, which without Key's Format method print the
// fingerprint's hex or the raw key bytes.
func TestKeyPrintsNoKeyUnderAnyVerb(t *testing.T) {
	k, _ := KeyFromBytes(bytes.Repeat([]byte{0xAB}, KeySize))
	for _, verb := range []string{"%v", "%s", "%x", "%X", "%#v", "%+v", "%q"} {
		if got := fmt.Sprintf(verb, k); got != k.String() {
			t.Errorf("Key printed with %s: %s, want %s", verb, got, k.String())
		}
	}
}

func TestKeyFingerprint(t *testing.T) {
	k1, _ := NewKey()
	k2, _ := NewKey()
	if k1.Fingerprint() == k2.Fingerprint() {
		t.Error("distinct keys share a fingerprint")
	}
	if k1.Fingerprint() != k1.Fingerprint() {
		t.Error("fingerprint not deterministic")
	}
	var invalid Key
	if invalid.Fingerprint() != [8]byte{} {
		t.Error("invalid key fingerprint not zero")
	}
}

// TestNonce: each AppendFresh lands in the plaintext after what was there,
// is the value returned, and differs from the draw before.
func TestNonce(t *testing.T) {
	var p Plaintext
	p.AppendUint8(7)
	n1 := p.AppendFresh()
	n2 := p.AppendFresh()
	if len(p.b) != 1+2*NonceSize || p.b[0] != 7 {
		t.Fatalf("plaintext is %x, want 07 and two nonces", p.b)
	}
	if Nonce(p.b[1:]) != n1 || Nonce(p.b[1+NonceSize:]) != n2 {
		t.Error("returned nonces are not the bytes appended")
	}
	if n1.Equal(n2) {
		t.Error("two fresh nonces are equal")
	}
	if !n1.Equal(n1) {
		t.Error("nonce not equal to itself")
	}
	if n1 == (Nonce{}) {
		t.Error("fresh nonce is zero")
	}
	if len(n1.String()) == 0 {
		t.Error("empty nonce string")
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	k, _ := NewKey()
	plaintext := []byte("AuthInitReq, A, L, nonce")
	ad := []byte("header")
	box, err := Seal(k, plaintext, ad)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Open(k, box, ad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, plaintext) {
		t.Errorf("round trip: got %q want %q", got, plaintext)
	}
}

func TestSealRandomized(t *testing.T) {
	k, _ := NewKey()
	b1, _ := Seal(k, []byte("x"), nil)
	b2, _ := Seal(k, []byte("x"), nil)
	if bytes.Equal(b1, b2) {
		t.Error("Seal is deterministic: ciphertexts reveal plaintext equality")
	}
}

func TestOpenRejectsWrongKey(t *testing.T) {
	k1, _ := NewKey()
	k2, _ := NewKey()
	box, _ := Seal(k1, []byte("secret"), nil)
	if _, err := Open(k2, box, nil); err != ErrDecrypt {
		t.Errorf("Open with wrong key: err = %v, want ErrDecrypt", err)
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	k, _ := NewKey()
	box, _ := Seal(k, []byte("secret"), []byte("hdr"))
	for i := 0; i < len(box); i += 7 {
		tampered := append([]byte(nil), box...)
		tampered[i] ^= 0x01
		if _, err := Open(k, tampered, []byte("hdr")); err != ErrDecrypt {
			t.Fatalf("tampered byte %d accepted", i)
		}
	}
}

func TestOpenRejectsWrongAD(t *testing.T) {
	k, _ := NewKey()
	box, _ := Seal(k, []byte("secret"), []byte("AdminMsg,L,A"))
	if _, err := Open(k, box, []byte("Ack,L,A")); err != ErrDecrypt {
		t.Error("relabeled header accepted: AD not bound")
	}
}

func TestOpenRejectsTruncated(t *testing.T) {
	k, _ := NewKey()
	box, _ := Seal(k, []byte("secret"), nil)
	for _, n := range []int{0, 1, 11, len(box) - 1} {
		if _, err := Open(k, box[:n], nil); err != ErrDecrypt {
			t.Errorf("truncated ciphertext of %d bytes accepted", n)
		}
	}
}

func TestSealInvalidKey(t *testing.T) {
	var k Key
	if _, err := Seal(k, []byte("x"), nil); err == nil {
		t.Error("Seal with invalid key succeeded")
	}
	if _, err := Open(k, []byte("xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"), nil); err != ErrDecrypt {
		t.Error("Open with invalid key did not return ErrDecrypt")
	}
}

func TestSealOpenProperty(t *testing.T) {
	k, _ := NewKey()
	f := func(plaintext, ad []byte) bool {
		box, err := Seal(k, plaintext, ad)
		if err != nil {
			return false
		}
		got, err := Open(k, box, ad)
		if err != nil {
			return false
		}
		return bytes.Equal(got, plaintext)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDeriveKeyDeterministic(t *testing.T) {
	k1 := DeriveKey("alice", "leader", "hunter2")
	k2 := DeriveKey("alice", "leader", "hunter2")
	if !k1.Equal(k2) {
		t.Error("derivation not deterministic")
	}
}

func TestDeriveKeySeparation(t *testing.T) {
	base := DeriveKey("alice", "leader", "hunter2")
	tests := []struct {
		name string
		k    Key
	}{
		{"different password", DeriveKey("alice", "leader", "hunter3")},
		{"different user", DeriveKey("bob", "leader", "hunter2")},
		{"different leader", DeriveKey("alice", "leader2", "hunter2")},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if base.Equal(tt.k) {
				t.Error("derived keys collide")
			}
		})
	}
}

// TestPBKDF2KnownAnswers pins PBKDF2-HMAC-SHA256 at iteration counts
// {1, 2, 4096} and output lengths {20, 32, 64} — truncated, exact and
// multi-block — on the RFC 7914 section 11 inputs ("passwd"/"salt", whose
// c=1 dkLen=64 row is the RFC's own vector, and "Password"/"NaCl") and on
// the widely published "password"/"salt" set, on both paths.
func TestPBKDF2KnownAnswers(t *testing.T) {
	answers := []struct {
		password, salt string
		iter, keyLen   int
		want           string
	}{
		{"password", "salt", 1, 20, "120fb6cffcf8b32c43e7225256c4f837a86548c9"},
		{"password", "salt", 1, 32, "120fb6cffcf8b32c43e7225256c4f837a86548c92ccc35480805987cb70be17b"},
		{"password", "salt", 2, 32, "ae4d0c95af6b46d32d0adff928f06dd02a303f8ef3c251dfd6e2d85a95474c43"},
		{"password", "salt", 4096, 20, "c5e478d59288c841aa530db6845c4c8d962893a0"},
		{"password", "salt", 4096, 32, "c5e478d59288c841aa530db6845c4c8d962893a001ce4e11a4963873aa98134a"},
		{"passwd", "salt", 1, 64, "55ac046e56e3089fec1691c22544b605f94185216dde0465e68b9d57c20dacbc" +
			"49ca9cccf179b645991664b39d77ef317c71b845b1e30bd509112041d3a19783"},
		{"passwd", "salt", 2, 20, "2d412f896e76685e30df569f0a740634e31f031f"},
		{"passwd", "salt", 2, 64, "2d412f896e76685e30df569f0a740634e31f031f749d607d9e44210bffb91a6a" +
			"b670f500c78862001959f7d7b9f96afb3605700298acb14427e0239463c66f20"},
		{"passwd", "salt", 4096, 64, "21943fd5b7a10905c38fad60157ff498e1e81df1e03254325682a74dca3b2be8" +
			"f3ab1ccb49d0a5095e69792ba334c6fdaf55d266a9922c760d3c5f5c3ec22c52"},
		{"Password", "NaCl", 1, 32, "c600404e39c9e97a7d7a745b32c3e7426387b365693c7f59300fd8a03aab4c6e"},
		{"Password", "NaCl", 2, 64, "7897885f70bce63d18e043ad11c3a4b71a326b50c5e183d740d8924f5c3ead46" +
			"1d35bad7561465d9f404c65376086aa5c5d36bbd1dab359e41d33b7839fb6196"},
		{"Password", "NaCl", 4096, 20, "438b6f1df76520b1c9989ddf976545b40f1ab4d9"},
		{"Password", "NaCl", 4096, 64, "438b6f1df76520b1c9989ddf976545b40f1ab4d9da723a81aa5083108b0da61f" +
			"e1a2be306bc4e96259eaefdeb066a3bf6ecfa07de966472029831582717d7e6a"},
	}
	pbkdf2Paths(t, func(t *testing.T, kernel bool) {
		for _, tc := range answers {
			got := hex.EncodeToString(pbkdf2([]byte(tc.password), []byte(tc.salt), tc.iter, tc.keyLen, kernel))
			if got != tc.want {
				t.Errorf("pbkdf2(%q, %q, c=%d, dkLen=%d) = %s, want %s", tc.password, tc.salt, tc.iter, tc.keyLen, got, tc.want)
			}
		}
	})
}

// pbkdf2Paths runs f as one subtest per PBKDF2 path: the portable HMAC
// loop, and the pbkdf2Rounds kernel where the CPU has it.
func pbkdf2Paths(t *testing.T, f func(t *testing.T, kernel bool)) {
	t.Run("portable", func(t *testing.T) { f(t, false) })
	t.Run("kernel", func(t *testing.T) {
		requireKernel(t)
		f(t, true)
	})
}

// requireKernel skips where the CPU lacks the kernel's instructions, and
// fails where sha256's state no longer yields HMAC's midstates: pbkdf2
// would then never run the kernel.
func requireKernel(t testing.TB) {
	t.Helper()
	if !haveSHANI {
		t.Skip("CPU lacks the SHA extensions, SSSE3 or SSE4.1: the pbkdf2Rounds kernel is not run")
	}
	var istate, ostate [8]uint32
	if !midstates([]byte("key"), nil, &istate, &ostate) {
		t.Fatal("sha256 AppendBinary state unreadable: pbkdf2 takes the portable path on every CPU")
	}
}

// TestPBKDF2KernelMatchesPortable compares the two paths on passwords of
// every length from 0 to 130 bytes (past 64 HMAC hashes the key first),
// random salts of 0–100 bytes, c in {1, 2, 3, 4096} and dkLen in {1, 20,
// 32, 33, 64, 100}; every (c, dkLen) pair comes up 10 or 11 times.
func TestPBKDF2KernelMatchesPortable(t *testing.T) {
	requireKernel(t)
	r := rand.New(rand.NewPCG(2001, 50))
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(r.Uint32())
		}
		return b
	}
	for i := range 262 {
		password, salt := randBytes(i%131), randBytes(r.IntN(101))
		iter, keyLen := []int{1, 2, 3, 4096}[i%4], []int{1, 20, 32, 33, 64, 100}[i/4%6]
		want := pbkdf2(password, salt, iter, keyLen, false)
		if got := pbkdf2(password, salt, iter, keyLen, true); !bytes.Equal(got, want) {
			t.Fatalf("password %x, salt %x, c=%d, dkLen=%d: kernel %x, portable %x", password, salt, iter, keyLen, got, want)
		}
	}
}

// FuzzPBKDF2 compares the kernel with the portable loop at c up to 4096
// and dkLen up to 128.
func FuzzPBKDF2(f *testing.F) {
	requireKernel(f)
	f.Add([]byte("password"), []byte("salt"), uint16(4095), uint8(31))
	f.Add(bytes.Repeat([]byte{0xA5}, 130), []byte{}, uint16(2), uint8(99))
	f.Fuzz(func(t *testing.T, password, salt []byte, iter uint16, keyLen uint8) {
		c, n := 1+int(iter%4096), 1+int(keyLen%128)
		if got, want := pbkdf2(password, salt, c, n, true), pbkdf2(password, salt, c, n, false); !bytes.Equal(got, want) {
			t.Errorf("c=%d, dkLen=%d: kernel %x, portable %x", c, n, got, want)
		}
	})
}

func TestPBKDF2SecondVector(t *testing.T) {
	// RFC 7914: P="Password", S="NaCl", c=80000, dkLen=64.
	if testing.Short() {
		t.Skip("80000 iterations in -short mode")
	}
	want, _ := hex.DecodeString(
		"4ddcd8f60b98be21830cee5ef22701f9641a4418d04c0414aeff08876b34ab56" +
			"a1d425a1225833549adb841b51c9b3176a272bdebba1d078478f62b397f33c8d")
	pbkdf2Paths(t, func(t *testing.T, kernel bool) {
		if got := pbkdf2([]byte("Password"), []byte("NaCl"), 80000, 64, kernel); !bytes.Equal(got, want) {
			t.Errorf("pbkdf2 = %x, want %x", got, want)
		}
	})
}

// TestDeriveKeyGolden pins DeriveKey's output to the bytes every deployed
// leader and member binary already agrees on (captured at commit 00c29b4,
// before the kernel was rewritten): a change to the salt format, iteration
// count or PRF locks every user out, and must not pass silently.
func TestDeriveKeyGolden(t *testing.T) {
	const want = "a29604d6c1c008ba3684188849c7c71b0c8eb607d3f8d59e602267f1c03c050b"
	k := DeriveKey("alice", "leader", "hunter2")
	if got := hex.EncodeToString(k.bytes[:]); got != want {
		t.Errorf("DeriveKey(alice, leader, hunter2) = %s, want %s", got, want)
	}
	pbkdf2Paths(t, func(t *testing.T, kernel bool) {
		raw := pbkdf2([]byte("hunter2"), []byte("enclaves/v1|leader|alice"), DeriveKeyIterations, KeySize, kernel)
		if got := hex.EncodeToString(raw); got != want {
			t.Errorf("pbkdf2 under DeriveKey(alice, leader, hunter2) = %s, want %s", got, want)
		}
	})
}

// TestDeriveKeyAllocs fails if the kernel goes back to building an HMAC per
// iteration (24,579 allocations per key at the 4,096 iterations).
func TestDeriveKeyAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(3, func() { DeriveKey("alice", "leader", "hunter2") })
	if allocs > 16 {
		t.Errorf("DeriveKey allocates %.0f times per call, want <= 16", allocs)
	}
}

// TestDeriveKeysMatchesSerial checks the parallel helper against a serial
// DeriveKey loop, inline (one P) and fanned out (four).
func TestDeriveKeysMatchesSerial(t *testing.T) {
	passwords := map[string]string{"alice": "a-pw", "bob": "b-pw", "carol": "c-pw"}
	leaders := []string{"g0", "g1", "g2"}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		got := DeriveKeys(passwords, leaders...)
		runtime.GOMAXPROCS(prev)
		if len(got) != len(leaders) {
			t.Fatalf("GOMAXPROCS=%d: %d leaders, want %d", procs, len(got), len(leaders))
		}
		for _, leader := range leaders {
			if len(got[leader]) != len(passwords) {
				t.Errorf("GOMAXPROCS=%d: leader %s has %d users, want %d", procs, leader, len(got[leader]), len(passwords))
			}
			for user, password := range passwords {
				if !got[leader][user].Equal(DeriveKey(user, leader, password)) {
					t.Errorf("GOMAXPROCS=%d: key for %s at %s differs from DeriveKey", procs, user, leader)
				}
			}
		}
	}
	if got := DeriveKeys(passwords); len(got) != 0 {
		t.Errorf("no leaders: got %d entries", len(got))
	}
}

var sinkKey Key

// BenchmarkDeriveKey measures PBKDF2 long-term key derivation (paid once
// per user, not per message).
func BenchmarkDeriveKey(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkKey = DeriveKey("alice", "leader", "hunter2")
	}
}

// BenchmarkDeriveKeys times a whole start-up's derivations in the two
// shapes the benchmark spawns: one group of 512 users, 128 groups of 4.
func BenchmarkDeriveKeys(b *testing.B) {
	for _, shape := range []struct{ groups, users int }{{1, 512}, {128, 4}} {
		passwords := make(map[string]string, shape.users)
		for u := 0; u < shape.users; u++ {
			passwords[fmt.Sprintf("m%d", u)] = "bench-password"
		}
		leaders := make([]string, shape.groups)
		for g := range leaders {
			leaders[g] = fmt.Sprintf("g%d", g)
		}
		b.Run(fmt.Sprintf("%dx%d", shape.groups, shape.users), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkKey = DeriveKeys(passwords, leaders...)["g0"]["m0"]
			}
		})
	}
}

// TestKeyAPISurface pins the type-level rule that raw key bytes never leave
// this package: no exported method of Key or Plaintext returns a byte
// slice, byte array or string, apart from Fingerprint's truncated hash,
// String's redacted form and the nonce AppendFresh draws, and none of
// those reveals the key. Neither type has an exported field.
func TestKeyAPISurface(t *testing.T) {
	raw := bytes.Repeat([]byte{0xA5, 0x3C}, KeySize/2)
	k, _ := KeyFromBytes(raw)
	var p Plaintext
	p.AppendKey(k)
	q := p // AppendFresh is called on the copy
	allowed := map[string]bool{"Fingerprint": true, "String": true, "AppendFresh": true}
	for _, v := range []any{k, &k, p, &q} {
		rv := reflect.ValueOf(v)
		if st := reflect.Indirect(rv).Type(); st.Kind() == reflect.Struct {
			for i := range st.NumField() {
				if st.Field(i).IsExported() {
					t.Errorf("%s has exported field %s", st, st.Field(i).Name)
				}
			}
		}
		for i := range rv.NumMethod() {
			m := rv.Type().Method(i)
			for j := range m.Type.NumOut() {
				out := m.Type.Out(j)
				switch {
				case out.Kind() != reflect.String && (out.Kind() != reflect.Slice && out.Kind() != reflect.Array || out.Elem().Kind() != reflect.Uint8):
				case !allowed[m.Name]:
					t.Errorf("%s.%s returns %s", rv.Type(), m.Name, out)
				default:
					got := fmt.Sprint(rv.Method(i).Call(nil)[j].Interface())
					if strings.Contains(got, hex.EncodeToString(raw[:4])) || strings.Contains(got, string(raw[:4])) {
						t.Errorf("%s.%s reveals the key: %s", rv.Type(), m.Name, got)
					}
				}
			}
		}
	}
	for _, verb := range []string{"%v", "%+v", "%#v", "%x", "%s", "%d"} {
		if got := fmt.Sprintf(verb, p); got != "Plaintext(32 bytes)" {
			t.Errorf("Plaintext printed with %s: %s", verb, got)
		}
	}
}
