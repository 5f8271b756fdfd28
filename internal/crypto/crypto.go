// Package crypto provides the symmetric cryptography used by the Enclaves
// runtime: an AEAD cipher (AES-256-GCM) realizing the symbolic {X}_K
// abstraction of the paper, password-based derivation of long-term keys
// P_a (PBKDF2-HMAC-SHA256: each block's U_1 on the standard library's
// HMAC, and U_2…U_c in one register-resident SHA-NI loop on amd64 CPUs
// that have the SHA extensions, on that HMAC elsewhere), and generation of
// random keys and nonces.
//
// The paper assumes an ideal symmetric cipher: ciphertexts reveal nothing
// about the plaintext and cannot be created or modified without the key.
// AEAD gives exactly that — confidentiality plus integrity — so a forged or
// tampered message fails authentication instead of decrypting to garbage.
// As in the paper's model, a key reaches the network only inside {X}_K:
// Key has no accessor for its bytes, and the one plaintext a key can enter
// (Plaintext) leaves this package only sealed.
package crypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
)

// KeySize is the size of all symmetric keys in bytes (AES-256).
const KeySize = 32

// NonceSize is the size of protocol nonces in bytes. Protocol nonces are
// the freshness values N1, N2, ... of the paper, not GCM nonces.
const NonceSize = 16

// ErrDecrypt is returned when a ciphertext fails authentication or is
// malformed. Callers must treat it as evidence of forgery or corruption.
var ErrDecrypt = errors.New("crypto: message authentication failed")

// Key is a symmetric key. The zero value is not a valid key; use NewKey,
// DeriveKey, or KeyFromBytes.
type Key struct {
	bytes [KeySize]byte
	valid bool
}

// NewKey generates a fresh random key.
func NewKey() (Key, error) {
	var k Key
	if _, err := rand.Read(k.bytes[:]); err != nil {
		return Key{}, fmt.Errorf("crypto: generate key: %w", err)
	}
	k.valid = true
	return k, nil
}

// KeyFromBytes builds a key from raw bytes, which must be exactly KeySize
// long.
func KeyFromBytes(b []byte) (Key, error) {
	if len(b) != KeySize {
		return Key{}, fmt.Errorf("crypto: key must be %d bytes, got %d", KeySize, len(b))
	}
	var k Key
	copy(k.bytes[:], b)
	k.valid = true
	return k, nil
}

// Valid reports whether the key holds usable key material.
func (k Key) Valid() bool { return k.valid }

// Equal compares two keys in constant time.
func (k Key) Equal(other Key) bool {
	if !k.valid || !other.valid {
		return k.valid == other.valid
	}
	return subtle.ConstantTimeCompare(k.bytes[:], other.bytes[:]) == 1
}

// Zero overwrites the key material. Discarded session keys are zeroized
// when a session closes (the runtime counterpart of the model's key
// disposal; the Oops event models the pessimistic assumption that the
// adversary got the key anyway).
func (k *Key) Zero() {
	for i := range k.bytes {
		k.bytes[i] = 0
	}
	k.valid = false
}

// String renders a short fingerprint, never the key material.
func (k Key) String() string {
	if !k.valid {
		return "Key(invalid)"
	}
	sum := sha256.Sum256(k.bytes[:])
	return "Key(" + hex.EncodeToString(sum[:4]) + ")"
}

// Format prints String's fingerprint under every verb; without it %#v and
// %d print the key bytes. A Key inside an unexported struct field is out
// of its reach, since fmt cannot call methods there.
func (k Key) Format(f fmt.State, _ rune) { io.WriteString(f, k.String()) }

// Fingerprint returns an 8-byte identifier of the key (a truncated hash),
// safe to log and compare.
func (k Key) Fingerprint() [8]byte {
	var fp [8]byte
	if !k.valid {
		return fp
	}
	sum := sha256.Sum256(k.bytes[:])
	copy(fp[:], sum[:8])
	return fp
}

// Nonce is a protocol freshness value (the N_i of the paper).
type Nonce [NonceSize]byte

// NewNonce generates a fresh random nonce.
func NewNonce() (Nonce, error) {
	var n Nonce
	if _, err := rand.Read(n[:]); err != nil {
		return Nonce{}, fmt.Errorf("crypto: generate nonce: %w", err)
	}
	return n, nil
}

// Equal compares two nonces in constant time.
func (n Nonce) Equal(other Nonce) bool {
	return subtle.ConstantTimeCompare(n[:], other[:]) == 1
}

func (n Nonce) String() string {
	return "N(" + hex.EncodeToString(n[:4]) + ")"
}

// Cipher is a Key bound to its precomputed AEAD instance. Building the AES
// key schedule and the GCM multiplication tables costs more than sealing a
// typical protocol message, so session hot paths construct one Cipher per
// key (NewCipher) and reuse it for every Seal/Open under that key, instead
// of paying the setup on each call as the package-level helpers do.
type Cipher struct {
	key  Key
	aead cipher.AEAD
}

// NewCipher precomputes the AEAD for k. The returned Cipher is safe for
// concurrent use.
func NewCipher(k Key) (*Cipher, error) {
	if !k.valid {
		return nil, errors.New("crypto: cipher from invalid key")
	}
	aead, err := newAEAD(k)
	if err != nil {
		return nil, err
	}
	return &Cipher{key: k, aead: aead}, nil
}

// Key returns the key the cipher is bound to.
func (c *Cipher) Key() Key { return c.key }

// Seal encrypts and authenticates plaintext, binding the additional data ad
// (the unencrypted message header) to the ciphertext. The output carries
// the GCM nonce as a prefix.
func (c *Cipher) Seal(plaintext, ad []byte) ([]byte, error) {
	iv := make([]byte, c.aead.NonceSize(), c.aead.NonceSize()+len(plaintext)+c.aead.Overhead())
	if _, err := rand.Read(iv); err != nil {
		return nil, fmt.Errorf("crypto: generate iv: %w", err)
	}
	return c.aead.Seal(iv, iv, plaintext, ad), nil
}

// Open authenticates and decrypts a ciphertext produced by Seal under the
// same key and additional data. It returns ErrDecrypt on any failure, so
// callers cannot distinguish tampering modes (no decryption oracle).
func (c *Cipher) Open(ciphertext, ad []byte) ([]byte, error) {
	if len(ciphertext) < c.aead.NonceSize()+c.aead.Overhead() {
		return nil, ErrDecrypt
	}
	iv, box := ciphertext[:c.aead.NonceSize()], ciphertext[c.aead.NonceSize():]
	plain, err := c.aead.Open(nil, iv, box, ad)
	if err != nil {
		return nil, ErrDecrypt
	}
	return plain, nil
}

// AppendLenPrefixed appends v behind its 4-byte big-endian length: the byte
// string field of the wire package's encodings, keyless ones appended to a
// []byte and Plaintext's alike. Integers are fixed-width big-endian.
func AppendLenPrefixed[S string | []byte](b []byte, v S) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(v)))
	return append(b, v...)
}

// Plaintext is a message under construction that may carry keys. Raw key
// bytes leave this package only inside one: AppendKey is the one way a key
// enters a plaintext, and a Plaintext has no way out but sealing
// (Cipher.SealPlaintext, SealPlaintext). It prints as its length whatever
// the verb. The zero value is empty and ready to use. The appenders write
// the wire package's field encodings.
type Plaintext struct{ b []byte }

// AppendKey appends the key's 32 raw bytes; the zero Key appends zeros.
func (p *Plaintext) AppendKey(k Key) { p.b = append(p.b, k.bytes[:]...) }

// AppendNonce appends the nonce's raw bytes.
func (p *Plaintext) AppendNonce(n Nonce) { p.b = append(p.b, n[:]...) }

// AppendUint8 appends one byte.
func (p *Plaintext) AppendUint8(v uint8) { p.b = append(p.b, v) }

// AppendUint64 appends v big-endian.
func (p *Plaintext) AppendUint64(v uint64) { p.b = binary.BigEndian.AppendUint64(p.b, v) }

// AppendString appends s behind its 4-byte big-endian length.
func (p *Plaintext) AppendString(s string) { p.b = AppendLenPrefixed(p.b, s) }

// AppendBytes appends v behind its 4-byte big-endian length.
func (p *Plaintext) AppendBytes(v []byte) { p.b = AppendLenPrefixed(p.b, v) }

// AppendSized appends what fill appends behind its 4-byte big-endian
// length: a nested encoding, such as an AdminMsg's body.
func (p *Plaintext) AppendSized(fill func(*Plaintext)) {
	at := len(p.b)
	p.b = append(p.b, 0, 0, 0, 0)
	fill(p)
	binary.BigEndian.PutUint32(p.b[at:], uint32(len(p.b)-at-4))
}

// Format renders the plaintext's length only, for every verb.
func (p Plaintext) Format(f fmt.State, _ rune) { fmt.Fprintf(f, "Plaintext(%d bytes)", len(p.b)) }

// SealPlaintext seals p as Seal seals a byte plaintext.
func (c *Cipher) SealPlaintext(p Plaintext, ad []byte) ([]byte, error) { return c.Seal(p.b, ad) }

// SealPlaintext seals p under k as the one-shot Seal does.
func SealPlaintext(k Key, p Plaintext, ad []byte) ([]byte, error) { return Seal(k, p.b, ad) }

// Seal encrypts and authenticates plaintext under k, rebuilding the AEAD on
// every call. Only one-shot paths use it — the attack scenarios' forgeries
// under a leaked or guessed key; anything per-message, the handshake
// included, holds a Cipher instead.
func Seal(k Key, plaintext, ad []byte) ([]byte, error) {
	c, err := NewCipher(k)
	if err != nil {
		return nil, err
	}
	return c.Seal(plaintext, ad)
}

// Open authenticates and decrypts a ciphertext produced by Seal under the
// same key and additional data, rebuilding the AEAD on every call; see
// Cipher.Open for the cached variant.
func Open(k Key, ciphertext, ad []byte) ([]byte, error) {
	if !k.valid {
		return nil, ErrDecrypt
	}
	c, err := NewCipher(k)
	if err != nil {
		return nil, ErrDecrypt
	}
	return c.Open(ciphertext, ad)
}

func newAEAD(k Key) (cipher.AEAD, error) {
	block, err := aes.NewCipher(k.bytes[:])
	if err != nil {
		return nil, fmt.Errorf("crypto: aes: %w", err)
	}
	return cipher.NewGCM(block)
}

// DeriveKeyIterations is the PBKDF2 iteration count used for password
// derivation of long-term keys.
const DeriveKeyIterations = 4096

// DeriveKey derives the long-term key P_user from the user's password, as
// in Section 2.2 ("a key P_a derived from A's password, so P_a is known by
// both A and L"). The user and leader names salt the derivation so equal
// passwords at different leaders produce unrelated keys.
func DeriveKey(user, leader, password string) Key {
	salt := []byte("enclaves/v1|" + leader + "|" + user)
	raw := pbkdf2([]byte(password), salt, DeriveKeyIterations, KeySize, haveSHANI)
	k, _ := KeyFromBytes(raw) // length is KeySize by construction
	return k
}

// DeriveKeys derives every user's key at every leader, indexed leader then
// user. The derivations are independent and CPU-bound, so they spread over
// min(GOMAXPROCS, n) goroutines; on one P they run inline.
func DeriveKeys(passwords map[string]string, leaders ...string) map[string]map[string]Key {
	type job struct{ leader, user string }
	jobs := make([]job, 0, len(leaders)*len(passwords))
	out := make(map[string]map[string]Key, len(leaders))
	for _, leader := range leaders {
		out[leader] = make(map[string]Key, len(passwords))
		for user := range passwords {
			jobs = append(jobs, job{leader, user})
		}
	}
	keys := make([]Key, len(jobs))
	var next atomic.Int64
	work := func() {
		for i := next.Add(1) - 1; i < int64(len(jobs)); i = next.Add(1) - 1 {
			keys[i] = DeriveKey(jobs[i].user, jobs[i].leader, passwords[jobs[i].user])
		}
	}
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(jobs)); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for i, j := range jobs {
		out[j.leader][j.user] = keys[i]
	}
	return out
}

// pbkdf2 implements PBKDF2-HMAC-SHA256 (RFC 2898). One keyed HMAC, Reset
// per use, computes each block's U_1. pbkdf2Rounds runs U_2…U_c if kernel
// is set (only where haveSHANI holds) and midstates reads the HMAC's
// chaining values; otherwise the HMAC runs them, two SHA-256 compressions
// and no allocation an iteration.
func pbkdf2(password, salt []byte, iter, keyLen int, kernel bool) []byte {
	mac := hmac.New(sha256.New, password)
	// One allocation serves as the digest state midstates reads, each
	// block's counter and the portable loop's U.
	scratch := make([]byte, 0, digestStateLen)
	var istate, ostate [8]uint32
	kernel = kernel && midstates(password, scratch, &istate, &ostate)
	numBlocks := (keyLen + sha256.Size - 1) / sha256.Size
	out := make([]byte, 0, numBlocks*sha256.Size)
	for i := 1; i <= numBlocks; i++ {
		mac.Reset()
		mac.Write(salt)
		mac.Write(binary.BigEndian.AppendUint32(scratch[:0], uint32(i)))
		out = mac.Sum(out)
		t := out[len(out)-sha256.Size:]
		if kernel {
			var uw, tw [8]uint32
			for w := range uw {
				uw[w] = binary.BigEndian.Uint32(t[4*w:])
			}
			tw = uw
			pbkdf2Rounds(&istate, &ostate, &uw, &tw, iter-1)
			for w, v := range tw {
				binary.BigEndian.PutUint32(t[4*w:], v)
			}
			continue
		}
		u := append(scratch[:0], t...)
		for j := 1; j < iter; j++ {
			mac.Reset()
			mac.Write(u)
			u = mac.Sum(u[:0])
			subtle.XORBytes(t, t, u)
		}
	}
	return out[:keyLen]
}

// digestStateLen is the length of sha256's AppendBinary state: "sha\x03",
// H_0..H_7 big-endian, the 64-byte buffer and the length.
const digestStateLen = 4 + sha256.Size + sha256.BlockSize + 8

// midstates sets istate and ostate to the SHA-256 chaining values after
// HMAC's ipad and opad key blocks, read from the digest's AppendBinary
// state into buf's capacity. It reports false if the state is not laid
// out so.
func midstates(key, buf []byte, istate, ostate *[8]uint32) bool {
	if len(key) > sha256.BlockSize {
		sum := sha256.Sum256(key)
		key = sum[:]
	}
	h := sha256.New()
	ab, ok := h.(encoding.BinaryAppender)
	if !ok {
		return false
	}
	var block [sha256.BlockSize]byte
	for i, cv := range [...]*[8]uint32{istate, ostate} {
		for j := range block {
			block[j] = [...]byte{0x36, 0x5c}[i]
		}
		subtle.XORBytes(block[:], block[:len(key)], key)
		h.Reset()
		h.Write(block[:])
		b, err := ab.AppendBinary(buf[:0])
		if err != nil || len(b) != digestStateLen || string(b[:4]) != "sha\x03" {
			return false
		}
		for w := range cv {
			cv[w] = binary.BigEndian.Uint32(b[4+4*w:])
		}
	}
	return true
}
