package wire

import (
	"encoding/binary"
	"fmt"

	"enclaves/internal/crypto"
)

// This file defines the plaintext payload encodings of the improved
// protocol (Section 3.2). Identities are encoded INSIDE the encrypted
// payloads — {A, L, N1}_Pa etc. — exactly as the verified model requires;
// receivers check them against their own expectations, never against the
// forgeable envelope header.
//
// A payload that carries a fresh nonce draws it while it encodes
// (crypto.Plaintext.AppendFresh) and never reads its freshness field to
// encode: Marshal returns the plaintext and the nonce it drew, which the
// sender keeps to check the echo. The field is what Unmarshal fills.

// AuthInitPayload is the content of AuthInitReq: {A, L, N1}_Pa.
type AuthInitPayload struct {
	User   string
	Leader string
	// N1 is the member's fresh challenge for this exchange.
	N1 crypto.Nonce
}

// Marshal encodes the payload with a freshly drawn N1 and returns that N1.
func (p AuthInitPayload) Marshal() (crypto.Plaintext, crypto.Nonce) {
	var b crypto.Plaintext
	b.Grow(8 + len(p.User) + len(p.Leader) + crypto.NonceSize)
	b.AppendString(p.User)
	b.AppendString(p.Leader)
	n1 := b.AppendFresh()
	return b, n1
}

// UnmarshalAuthInit decodes an AuthInitPayload.
func UnmarshalAuthInit(data []byte) (AuthInitPayload, error) {
	p := parser{data: data}
	out := AuthInitPayload{
		User:   p.string(),
		Leader: p.string(),
	}
	copy(out.N1[:], p.take(crypto.NonceSize))
	if err := p.finish(); err != nil {
		return AuthInitPayload{}, fmt.Errorf("%w: auth init: %v", ErrBadPayload, err)
	}
	return out, nil
}

// AuthKeyDistPayload is the content of AuthKeyDist:
// {L, A, N1, N2, Ka}_Pa.
type AuthKeyDistPayload struct {
	Leader string
	User   string
	// N1 echoes the member's challenge; N2 is the leader's fresh
	// counter-challenge.
	N1         crypto.Nonce
	N2         crypto.Nonce
	SessionKey crypto.Key
}

// Marshal encodes the payload with a freshly drawn N2, into a plaintext
// that only sealing consumes: it carries K_a. It returns that N2.
func (p AuthKeyDistPayload) Marshal() (crypto.Plaintext, crypto.Nonce) {
	var b crypto.Plaintext
	b.AppendString(p.Leader)
	b.AppendString(p.User)
	b.AppendNonce(p.N1)
	n2 := b.AppendFresh()
	b.AppendKey(p.SessionKey)
	return b, n2
}

// UnmarshalAuthKeyDist decodes an AuthKeyDistPayload.
func UnmarshalAuthKeyDist(data []byte) (AuthKeyDistPayload, error) {
	p := parser{data: data}
	out := AuthKeyDistPayload{
		Leader: p.string(),
		User:   p.string(),
	}
	copy(out.N1[:], p.take(crypto.NonceSize))
	copy(out.N2[:], p.take(crypto.NonceSize))
	keyRaw := p.take(crypto.KeySize)
	if err := p.finish(); err != nil {
		return AuthKeyDistPayload{}, fmt.Errorf("%w: key dist: %v", ErrBadPayload, err)
	}
	k, err := crypto.KeyFromBytes(keyRaw)
	if err != nil {
		return AuthKeyDistPayload{}, fmt.Errorf("%w: key dist: %v", ErrBadPayload, err)
	}
	out.SessionKey = k
	return out, nil
}

// AckPayload is the shared content shape of AuthAckKey and Ack:
// {A, L, NPrev, NNext}_Ka. For AuthAckKey, NPrev is the leader's N2 from
// the key distribution and NNext is the user's fresh N3; for Ack, NPrev is
// the leader nonce N_{2i+2} of the acknowledged AdminMsg and NNext is the
// fresh N_{2i+3} (Section 3.2).
type AckPayload struct {
	User   string
	Leader string
	NPrev  crypto.Nonce
	NNext  crypto.Nonce
}

// Marshal encodes the payload with a freshly drawn NNext and returns that
// NNext.
func (p AckPayload) Marshal() (crypto.Plaintext, crypto.Nonce) {
	var b crypto.Plaintext
	b.Grow(8 + len(p.User) + len(p.Leader) + 2*crypto.NonceSize)
	b.AppendString(p.User)
	b.AppendString(p.Leader)
	b.AppendNonce(p.NPrev)
	next := b.AppendFresh()
	return b, next
}

// UnmarshalAck decodes an AckPayload.
func UnmarshalAck(data []byte) (AckPayload, error) {
	p := parser{data: data}
	out := AckPayload{
		User:   p.string(),
		Leader: p.string(),
	}
	copy(out.NPrev[:], p.take(crypto.NonceSize))
	copy(out.NNext[:], p.take(crypto.NonceSize))
	if err := p.finish(); err != nil {
		return AckPayload{}, fmt.Errorf("%w: ack: %v", ErrBadPayload, err)
	}
	return out, nil
}

// AdminMsgPayload is the content of AdminMsg:
// {L, A, N_{2i+1}, N_{2i+2}, X}_Ka. The admin body X is the actual
// group-management message (Section 3.2: "X may specify a new group key and
// initialization vector, or indicate that a member has joined or left").
type AdminMsgPayload struct {
	Leader string
	User   string
	NPrev  crypto.Nonce // the member's most recent nonce N_{2i+1}
	NNext  crypto.Nonce // the leader's fresh nonce N_{2i+2}
	Seq    uint64       // sequence number within the session, for auditing
	Body   AdminBody
}

// Marshal encodes the payload with a freshly drawn NNext, into a plaintext
// that only sealing consumes: the body may carry keys. It returns that
// NNext.
func (p AdminMsgPayload) Marshal() (crypto.Plaintext, crypto.Nonce) {
	var b crypto.Plaintext
	b.AppendString(p.Leader)
	b.AppendString(p.User)
	b.AppendNonce(p.NPrev)
	next := b.AppendFresh()
	b.AppendUint64(p.Seq)
	b.AppendSized(func(b *crypto.Plaintext) { appendAdminBody(b, p.Body) })
	return b, next
}

// UnmarshalAdminMsg decodes an AdminMsgPayload.
func UnmarshalAdminMsg(data []byte) (AdminMsgPayload, error) {
	p := parser{data: data}
	out := AdminMsgPayload{
		Leader: p.string(),
		User:   p.string(),
	}
	copy(out.NPrev[:], p.take(crypto.NonceSize))
	copy(out.NNext[:], p.take(crypto.NonceSize))
	out.Seq = p.uint64()
	bodyRaw := p.bytes()
	if err := p.finish(); err != nil {
		return AdminMsgPayload{}, fmt.Errorf("%w: admin msg: %v", ErrBadPayload, err)
	}
	body, err := UnmarshalAdminBody(bodyRaw)
	if err != nil {
		return AdminMsgPayload{}, err
	}
	out.Body = body
	return out, nil
}

// ClosePayload is the content of ReqClose: {A, L}_Ka. At most one close per
// session key makes the message unreplayable (Section 3.2).
type ClosePayload struct {
	User   string
	Leader string
}

// Marshal encodes the payload deterministically.
func (p ClosePayload) Marshal() []byte {
	b := make([]byte, 0, 8+len(p.User)+len(p.Leader))
	return crypto.AppendLenPrefixed(crypto.AppendLenPrefixed(b, p.User), p.Leader)
}

// UnmarshalClose decodes a ClosePayload.
func UnmarshalClose(data []byte) (ClosePayload, error) {
	p := parser{data: data}
	out := ClosePayload{
		User:   p.string(),
		Leader: p.string(),
	}
	if err := p.finish(); err != nil {
		return ClosePayload{}, fmt.Errorf("%w: close: %v", ErrBadPayload, err)
	}
	return out, nil
}

// AppDataPayload is application data multicast to the group, encrypted
// under the group key K_g of the stated epoch.
type AppDataPayload struct {
	Sender string
	Epoch  uint64 // group-key epoch the data is encrypted under
	Data   []byte
}

// Marshal encodes the payload deterministically.
func (p AppDataPayload) Marshal() []byte {
	b := crypto.AppendLenPrefixed(make([]byte, 0, 16+len(p.Sender)+len(p.Data)), p.Sender)
	return crypto.AppendLenPrefixed(binary.BigEndian.AppendUint64(b, p.Epoch), p.Data)
}

// UnmarshalAppData decodes an AppDataPayload.
func UnmarshalAppData(data []byte) (AppDataPayload, error) {
	p := parser{data: data}
	out := AppDataPayload{
		Sender: p.string(),
		Epoch:  p.uint64(),
		Data:   p.bytes(),
	}
	if err := p.finish(); err != nil {
		return AppDataPayload{}, fmt.Errorf("%w: app data: %v", ErrBadPayload, err)
	}
	return out, nil
}
