package wire

import (
	"bytes"
	"encoding/hex"
	"testing"

	"enclaves/internal/crypto"
)

// testCipher seals and opens the tests' key-carrying encodings: their bytes
// are reachable only through a seal.
var testCipher = func() *crypto.Cipher {
	k, err := crypto.KeyFromBytes(make([]byte, crypto.KeySize))
	if err != nil {
		panic(err)
	}
	c, err := crypto.NewCipher(k)
	if err != nil {
		panic(err)
	}
	return c
}()

// plain returns an encoding's plaintext bytes: Open(Seal(p)).
func plain(p crypto.Plaintext) []byte {
	box, err := testCipher.SealPlaintext(p, nil)
	if err != nil {
		panic(err)
	}
	out, err := testCipher.Open(box, nil)
	if err != nil {
		panic(err)
	}
	return out
}

// adminBody returns an admin body's encoding with its kind tag.
func adminBody(body AdminBody) []byte {
	var b crypto.Plaintext
	appendAdminBody(&b, body)
	return plain(b)
}

// opened returns the plaintext bytes of an encoding that drew a fresh
// nonce, and that nonce.
func opened(p crypto.Plaintext, drawn crypto.Nonce) ([]byte, crypto.Nonce) { return plain(p), drawn }

// spliced returns the plaintext of an encoding that drew a fresh nonce,
// with want in the drawn nonce's place: the bytes of an encoder that wrote
// want there.
func spliced(want crypto.Nonce) func(crypto.Plaintext, crypto.Nonce) []byte {
	return func(p crypto.Plaintext, drawn crypto.Nonce) []byte {
		return bytes.Replace(plain(p), drawn[:], want[:], 1)
	}
}

// fixedNonce is the nonce whose every byte is b.
func fixedNonce(b byte) crypto.Nonce {
	var n crypto.Nonce
	copy(n[:], bytes.Repeat([]byte{b}, crypto.NonceSize))
	return n
}

// TestKeyPlaintextGolden pins, byte for byte, the plaintext of every
// encoding that carries a key: what a peer opens is what it parsed before,
// so the wire format cannot drift while the encoders change shape. The keys
// are fixed (fixedKey), and the zero Key encodes as 32 zero bytes. A fresh
// nonce is drawn, so spliced puts the pattern back in its place.
func TestKeyPlaintextGolden(t *testing.T) {
	k := func(n uint64) crypto.Key { return fixedKey(t, n) }
	node := ReplLKHNode{ID: 3, Parent: 1, Ver: 2, User: "alice", Key: k(9), Dirty: true}
	cases := []struct {
		name  string
		plain []byte
		want  string
	}{
		{"NewGroupKey", adminBody(NewGroupKey{Epoch: 7, Key: k(1)}),
			"080000000000000007000000000000000000000000000000000000000000000000000000000000000100"},
		{"NewGroupKey/zero key", adminBody(NewGroupKey{Epoch: 8}),
			"080000000000000008000000000000000000000000000000000000000000000000000000000000000000"},
		{"NewGroupKey/changes", adminBody(NewGroupKey{Epoch: 9, Key: k(2),
			Changes: []MemberChange{{Name: "bob", Left: true}, {Name: "carol"}}}),
			"080000000000000009000000000000000000000000000000000000000000000000000000000000000202000000042d626f62000000062b6361726f6c"},
		{"PathKeys", adminBody(PathKeys{Epoch: 4, Root: 1, Leaf: 6, Entries: []PathEntry{
			{Node: 6, Ver: 1, Key: k(3)}, {Node: 3, Ver: 2, Key: k(4)}, {Node: 1, Ver: 5, Key: k(5)}}}),
			"060000000000000004000000000000000100000000000000060000000000000003000000000000000600000000000000010000000000000000000000000000000000000000000000000000000000000003000000000000000300000000000000020000000000000000000000000000000000000000000000000000000000000004000000000000000100000000000000050000000000000000000000000000000000000000000000000000000000000005"},
		{"AuthKeyDist", spliced(fixedNonce(0x22))(AuthKeyDistPayload{Leader: "L", User: "alice",
			N1: fixedNonce(0x11), SessionKey: k(6)}.Marshal()),
			"000000014c00000005616c69636511111111111111111111111111111111222222222222222222222222222222220000000000000000000000000000000000000000000000000000000000000006"},
		{"AdminMsg/NewGroupKey", spliced(fixedNonce(0x44))(AdminMsgPayload{Leader: "L", User: "alice",
			NPrev: fixedNonce(0x33), Seq: 12,
			Body: NewGroupKey{Epoch: 10, Key: k(7), Changes: []MemberChange{{Name: "dave"}}}}.Marshal()),
			"000000014c00000005616c6963653333333333333333333333333333333344444444444444444444444444444444000000000000000c0000003308000000000000000a000000000000000000000000000000000000000000000000000000000000000701000000052b64617665"},
		{"KeyUpdate box", plain(BoxPlaintext(k(8))),
			"0000000000000000000000000000000000000000000000000000000000000008"},
		{"KeyBoxes", adminBody(KeyBoxes{Epoch: 11, Changes: []MemberChange{{Name: "bob", Left: true}}, Boxes: []KeyBox{
			{Node: 6, Ver: 2, Under: 12, Epoch: 11, Box: []byte{0xaa, 0xaa, 0xaa, 0xaa}},
			{Node: 1, Ver: 5, Under: 6, Epoch: 11, Root: true, Box: []byte{0xbb, 0xbb, 0xbb, 0xbb}}}}),
			"09" + "000000000000000b" + "01" + "000000042d626f62" + "02" +
				"0000000000000006" + "0000000000000002" + "000000000000000c" + "000000000000000b" + "00" + "00000004aaaaaaaa" +
				"0000000000000001" + "0000000000000005" + "0000000000000006" + "000000000000000b" + "01" + "00000004bbbbbbbb"},
		{"ReplState", spliced(fixedNonce(0x66))(ReplStatePayload{Standby: "S", Primary: "P",
			Echo: fixedNonce(0x55), Epoch: 3, GroupKey: k(10), AuditSeq: 40,
			Members: []ReplMember{
				{User: "alice", SessionKey: k(11), Nonce: fixedNonce(0x77), Seq: 2},
				{User: "bob", SessionKey: k(12), Nonce: fixedNonce(0x88), Seq: 5}},
			LKHArity: 2, Tree: []ReplLKHNode{node}}.Marshal()),
			"000000000153000000015055555555555555555555555555555555666666666666666666666666666666660000000000000003000000000000000000000000000000000000000000000000000000000000000a0000000000000028000000000000000200000005616c696365000000000000000000000000000000000000000000000000000000000000000b77777777777777777777777777777777000000000000000200000003626f62000000000000000000000000000000000000000000000000000000000000000c88888888888888888888888888888888000000000000000502000000000000000100000000000000030000000000000001000000000000000200000005616c696365000000000000000000000000000000000000000000000000000000000000000901"},
		{"ReplDelta/MemberUp", spliced(fixedNonce(0xaa))(ReplDeltaPayload{Primary: "P", Standby: "S",
			Echo: fixedNonce(0x99), Kind: ReplMemberUp, AuditSeq: 41,
			User: "carol", Session: k(13), Nonce: fixedNonce(0xbb), Seq: 1}.Marshal()),
			"0000000150000000015399999999999999999999999999999999aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa010000000000000029000000056361726f6c000000000000000000000000000000000000000000000000000000000000000dbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb0000000000000001"},
		{"ReplDelta/Rekey", spliced(fixedNonce(0xdd))(ReplDeltaPayload{Primary: "P", Standby: "S",
			Echo: fixedNonce(0xcc), Kind: ReplRekey, AuditSeq: 42,
			Epoch: 4, GroupKey: k(14)}.Marshal()),
			"00000001500000000153ccccccccccccccccccccccccccccccccdddddddddddddddddddddddddddddddd03000000000000002a0000000000000004000000000000000000000000000000000000000000000000000000000000000e"},
		{"ReplDelta/LKH", spliced(fixedNonce(0xff))(ReplDeltaPayload{Primary: "P", Standby: "S",
			Echo: fixedNonce(0xee), Kind: ReplLKH, AuditSeq: 43,
			Nodes: []ReplLKHNode{node}, Removed: []uint64{7}}.Marshal()),
			"00000001500000000153eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeffffffffffffffffffffffffffffffff06000000000000002b000000000000000100000000000000030000000000000001000000000000000200000005616c69636500000000000000000000000000000000000000000000000000000000000000090100000000000000010000000000000007"},
	}
	for _, c := range cases {
		if got := hex.EncodeToString(c.plain); got != c.want {
			t.Errorf("%s plaintext\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}

// TestFreshFieldsAreDrawn: each payload with a freshness field draws it
// while it encodes. With the field preset, two encodings carry neither the
// preset nor each other's nonce where the field lies, and each carries the
// nonce its Marshal returned.
func TestFreshFieldsAreDrawn(t *testing.T) {
	preset := fixedNonce(0x5a)
	k := fixedKey(t, 1)
	cases := []struct {
		name    string
		at      int // the field's offset in the plaintext
		marshal func() (crypto.Plaintext, crypto.Nonce)
	}{
		{"AuthInit.N1", 14, AuthInitPayload{User: "alice", Leader: "L", N1: preset}.Marshal},
		{"AuthKeyDist.N2", 30, AuthKeyDistPayload{Leader: "L", User: "alice", N1: fixedNonce(0x11), N2: preset, SessionKey: k}.Marshal},
		{"Ack.NNext", 30, AckPayload{User: "alice", Leader: "L", NPrev: fixedNonce(0x11), NNext: preset}.Marshal},
		{"AdminMsg.NNext", 30, AdminMsgPayload{Leader: "L", User: "alice", NPrev: fixedNonce(0x11), NNext: preset, Body: Heartbeat{}}.Marshal},
		{"ReplState.Next", 27, ReplStatePayload{Standby: "S", Primary: "P", Echo: fixedNonce(0x11), Next: preset, GroupKey: k}.Marshal},
		{"ReplDelta.Next", 26, ReplDeltaPayload{Primary: "P", Standby: "S", Echo: fixedNonce(0x11), Next: preset, Kind: ReplPing}.Marshal},
	}
	for _, c := range cases {
		var sealed [2]crypto.Nonce
		for i := range sealed {
			p, drawn := c.marshal()
			sealed[i] = crypto.Nonce(plain(p)[c.at:])
			if sealed[i] == preset {
				t.Errorf("%s: encoding %d carries the preset field", c.name, i)
			}
			if sealed[i] != drawn {
				t.Errorf("%s: encoding %d carries %v, Marshal returned %v", c.name, i, sealed[i], drawn)
			}
		}
		if sealed[0] == sealed[1] {
			t.Errorf("%s: two encodings carry one nonce %v", c.name, sealed[0])
		}
	}
}

// TestKeyEncodeSealAllocs bounds the allocations of the hot key-carrying
// encode: a NewGroupKey AdminMsg encoded and sealed under a cached cipher.
// The body is encoded in place and the key appended straight from its
// array: 6 allocations, where byte-slice encoders and Key.Bytes took 10.
func TestKeyEncodeSealAllocs(t *testing.T) {
	c, err := crypto.NewCipher(fixedKey(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	p := AdminMsgPayload{Leader: "L", User: "alice", Seq: 12,
		Body: NewGroupKey{Epoch: 10, Key: fixedKey(t, 2), Changes: []MemberChange{{Name: "dave"}}}}
	ad := []byte("header")
	allocs := testing.AllocsPerRun(100, func() {
		pt, _ := p.Marshal()
		if _, err := c.SealPlaintext(pt, ad); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6 {
		t.Errorf("NewGroupKey AdminMsg encode and seal: %.0f allocations, want <= 6", allocs)
	}
}
