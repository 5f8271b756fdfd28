package wire

import (
	"fmt"

	"enclaves/internal/crypto"
)

// This file defines the payloads of the leader-replication channel and the
// session-resumption sub-protocol (hot failover).
//
// Replication channel (primary -> standby), sealed under the pre-shared
// replication key K_r with chained nonces for freshness:
//
//	ReplState  {S, P, N0}_Kr                    (hello: standby subscribes)
//	ReplState  {P, S, N0, N1, state...}_Kr      (snapshot: primary answers)
//	ReplDelta  {P, S, N_i, N_{i+1}, delta}_Kr   (incremental updates)
//
// Each message echoes the previous nonce of the chain and carries a fresh
// one, exactly like the AdminMsg pipeline: a replayed or reordered delta
// breaks the chain and forces the standby to re-subscribe for a fresh
// snapshot.
//
// Resumption sub-protocol (member -> promoted standby) reuses the existing
// payload shapes under distinct envelope types (the AEAD additional data
// binds the type, so a Resume can never be confused with an Ack on the
// wire):
//
//	Resume     = AckPayload      {A, L, N_last, N_f}_Ka   (TypeResume)
//	ResumeAck  = AdminMsgPayload {L, A, N_f, N_l, X}_Ka   (TypeResumeAck)
//
// N_last is the member's latest chained nonce — the standby matches it
// against the replicated session state, so a replayed Resume (stale nonce)
// is rejected. The ResumeAck rides the verified AdminMsg shape and carries
// the post-promotion NewGroupKey as its body X, so a resumed member never
// holds a pre-promotion group key.

// ReplDeltaKind tags the concrete replication delta.
type ReplDeltaKind uint8

// Replication delta kinds.
const (
	// ReplMemberUp: a member session reached Connected (join or resume);
	// carries the full session state.
	ReplMemberUp ReplDeltaKind = iota + 1
	// ReplMemberDown: a member left, was expelled, or was evicted.
	ReplMemberDown
	// ReplRekey: the group key rotated; carries the new epoch and key.
	ReplRekey
	// ReplSessionSync: a member acked an AdminMsg; carries the advanced
	// chained nonce and pipeline sequence.
	ReplSessionSync
	// ReplPing: liveness probe of the replication channel itself; advances
	// the nonce chain and the audit high-water mark, changes nothing else.
	ReplPing
	// ReplLKH: the logical key hierarchy changed; carries the created or
	// modified node records and the removed node IDs, so the standby can
	// mirror the key tree and a promoted leader can rotate a single path
	// instead of rebuilding a flat key for everyone.
	ReplLKH
	// Byte 7 carried the armed flag of the retired rekey-coalescing window:
	// rejected by the decoder and never reused.
)

func (k ReplDeltaKind) String() string {
	switch k {
	case ReplMemberUp:
		return "MemberUp"
	case ReplMemberDown:
		return "MemberDown"
	case ReplRekey:
		return "Rekey"
	case ReplSessionSync:
		return "SessionSync"
	case ReplPing:
		return "Ping"
	case ReplLKH:
		return "LKH"
	default:
		return fmt.Sprintf("ReplDeltaKind(%d)", uint8(k))
	}
}

// MaxReplMembers bounds the member table of a snapshot, mirroring the
// MemberList bound.
const MaxReplMembers = 100000

// ReplMember is one member's replicated session state: everything the
// standby needs to resume the session without a password re-handshake.
type ReplMember struct {
	User       string
	SessionKey crypto.Key   // K_a
	Nonce      crypto.Nonce // the member's latest chained nonce
	Seq        uint64       // AdminMsg pipeline sequence
}

// ReplStatePayload is the content of ReplState. With Hello set it is the
// standby's subscription request ({S, P, N0}_Kr: only Standby, Primary and
// Next are meaningful); otherwise it is the primary's full snapshot.
type ReplStatePayload struct {
	Hello    bool
	Standby  string
	Primary  string
	Echo     crypto.Nonce // previous chain nonce (zero in a hello)
	Next     crypto.Nonce // fresh chain nonce
	Epoch    uint64
	GroupKey crypto.Key
	AuditSeq uint64 // audit-trace high-water mark at snapshot time
	Members  []ReplMember

	// Logical key hierarchy state: the full node table when the primary
	// runs with the key tree enabled (empty otherwise).
	LKHArity uint8
	Tree     []ReplLKHNode
}

// Marshal encodes the payload with a freshly drawn Next, into a plaintext
// that only sealing consumes: a snapshot carries every key. It returns that
// Next.
func (p ReplStatePayload) Marshal() (crypto.Plaintext, crypto.Nonce) {
	var b crypto.Plaintext
	b.AppendUint8(boolByte(p.Hello))
	b.AppendString(p.Standby)
	b.AppendString(p.Primary)
	b.AppendNonce(p.Echo)
	next := b.AppendFresh()
	if p.Hello {
		return b, next
	}
	b.AppendUint64(p.Epoch)
	b.AppendKey(p.GroupKey)
	b.AppendUint64(p.AuditSeq)
	b.AppendUint64(uint64(len(p.Members)))
	for _, m := range p.Members {
		b.AppendString(m.User)
		b.AppendKey(m.SessionKey)
		b.AppendNonce(m.Nonce)
		b.AppendUint64(m.Seq)
	}
	b.AppendUint8(p.LKHArity)
	b.AppendUint64(uint64(len(p.Tree)))
	for _, n := range p.Tree {
		appendReplLKHNode(&b, n)
	}
	return b, next
}

// UnmarshalReplState decodes a ReplStatePayload.
func UnmarshalReplState(data []byte) (ReplStatePayload, error) {
	p := parser{data: data}
	flag := p.uint8()
	if p.err == nil && flag > 1 {
		return ReplStatePayload{}, fmt.Errorf("%w: repl state flag %d", ErrBadPayload, flag)
	}
	out := ReplStatePayload{
		Hello:   flag == 1,
		Standby: p.string(),
		Primary: p.string(),
	}
	copy(out.Echo[:], p.take(crypto.NonceSize))
	copy(out.Next[:], p.take(crypto.NonceSize))
	if out.Hello {
		if err := p.finish(); err != nil {
			return ReplStatePayload{}, fmt.Errorf("%w: repl hello: %v", ErrBadPayload, err)
		}
		return out, nil
	}
	out.Epoch = p.uint64()
	gk := p.take(crypto.KeySize)
	out.AuditSeq = p.uint64()
	n := p.uint64()
	if p.err == nil && n > MaxReplMembers {
		return ReplStatePayload{}, fmt.Errorf("%w: repl state with %d members", ErrBadPayload, n)
	}
	if p.err == nil {
		out.Members = make([]ReplMember, 0, n)
		for i := uint64(0); i < n && p.err == nil; i++ {
			var m ReplMember
			m.User = p.string()
			raw := p.take(crypto.KeySize)
			copy(m.Nonce[:], p.take(crypto.NonceSize))
			m.Seq = p.uint64()
			if p.err == nil {
				k, err := crypto.KeyFromBytes(raw)
				if err != nil {
					return ReplStatePayload{}, fmt.Errorf("%w: repl state: %v", ErrBadPayload, err)
				}
				m.SessionKey = k
				out.Members = append(out.Members, m)
			}
		}
	}
	out.LKHArity = p.uint8()
	tn := p.uint64()
	if p.err == nil && tn > MaxReplNodes {
		return ReplStatePayload{}, fmt.Errorf("%w: repl state with %d tree nodes", ErrBadPayload, tn)
	}
	if p.err == nil && tn > 0 {
		out.Tree = make([]ReplLKHNode, 0, tn)
		for i := uint64(0); i < tn && p.err == nil; i++ {
			node, err := parseReplLKHNode(&p)
			if err != nil {
				return ReplStatePayload{}, fmt.Errorf("%w: repl state tree: %v", ErrBadPayload, err)
			}
			out.Tree = append(out.Tree, node)
		}
	}
	if err := p.finish(); err != nil {
		return ReplStatePayload{}, fmt.Errorf("%w: repl state: %v", ErrBadPayload, err)
	}
	k, err := crypto.KeyFromBytes(gk)
	if err != nil {
		return ReplStatePayload{}, fmt.Errorf("%w: repl state: %v", ErrBadPayload, err)
	}
	out.GroupKey = k
	return out, nil
}

// ReplDeltaPayload is the content of ReplDelta: one incremental update of
// the replicated state, chained to its predecessor by Echo/Next.
type ReplDeltaPayload struct {
	Primary  string
	Standby  string
	Echo     crypto.Nonce // the chain nonce of the previous message
	Next     crypto.Nonce // fresh chain nonce
	Kind     ReplDeltaKind
	AuditSeq uint64 // audit-trace high-water mark after the event

	// Kind-dependent fields; unused ones are zero.
	User     string        // MemberUp, MemberDown, SessionSync
	Session  crypto.Key    // MemberUp: K_a
	Nonce    crypto.Nonce  // MemberUp, SessionSync: member's chained nonce
	Seq      uint64        // MemberUp, SessionSync: pipeline sequence
	Epoch    uint64        // Rekey
	GroupKey crypto.Key    // Rekey
	Nodes    []ReplLKHNode // LKH: created or modified tree nodes
	Removed  []uint64      // LKH: removed tree-node IDs
}

// Marshal encodes the payload with a freshly drawn Next, into a plaintext
// that only sealing consumes: a delta may carry keys. It returns that Next.
func (p ReplDeltaPayload) Marshal() (crypto.Plaintext, crypto.Nonce) {
	var b crypto.Plaintext
	b.AppendString(p.Primary)
	b.AppendString(p.Standby)
	b.AppendNonce(p.Echo)
	next := b.AppendFresh()
	b.AppendUint8(uint8(p.Kind))
	b.AppendUint64(p.AuditSeq)
	switch p.Kind {
	case ReplMemberUp:
		b.AppendString(p.User)
		b.AppendKey(p.Session)
		b.AppendNonce(p.Nonce)
		b.AppendUint64(p.Seq)
	case ReplMemberDown:
		b.AppendString(p.User)
	case ReplRekey:
		b.AppendUint64(p.Epoch)
		b.AppendKey(p.GroupKey)
	case ReplSessionSync:
		b.AppendString(p.User)
		b.AppendNonce(p.Nonce)
		b.AppendUint64(p.Seq)
	case ReplPing:
		// The chain advance is the whole message.
	case ReplLKH:
		b.AppendUint64(uint64(len(p.Nodes)))
		for _, n := range p.Nodes {
			appendReplLKHNode(&b, n)
		}
		b.AppendUint64(uint64(len(p.Removed)))
		for _, id := range p.Removed {
			b.AppendUint64(id)
		}
	}
	return b, next
}

// UnmarshalReplDelta decodes a ReplDeltaPayload.
func UnmarshalReplDelta(data []byte) (ReplDeltaPayload, error) {
	p := parser{data: data}
	out := ReplDeltaPayload{
		Primary: p.string(),
		Standby: p.string(),
	}
	copy(out.Echo[:], p.take(crypto.NonceSize))
	copy(out.Next[:], p.take(crypto.NonceSize))
	out.Kind = ReplDeltaKind(p.uint8())
	out.AuditSeq = p.uint64()
	switch out.Kind {
	case ReplMemberUp:
		out.User = p.string()
		raw := p.take(crypto.KeySize)
		copy(out.Nonce[:], p.take(crypto.NonceSize))
		out.Seq = p.uint64()
		if p.err == nil {
			k, err := crypto.KeyFromBytes(raw)
			if err != nil {
				return ReplDeltaPayload{}, fmt.Errorf("%w: repl delta: %v", ErrBadPayload, err)
			}
			out.Session = k
		}
	case ReplMemberDown:
		out.User = p.string()
	case ReplRekey:
		out.Epoch = p.uint64()
		raw := p.take(crypto.KeySize)
		if p.err == nil {
			k, err := crypto.KeyFromBytes(raw)
			if err != nil {
				return ReplDeltaPayload{}, fmt.Errorf("%w: repl delta: %v", ErrBadPayload, err)
			}
			out.GroupKey = k
		}
	case ReplSessionSync:
		out.User = p.string()
		copy(out.Nonce[:], p.take(crypto.NonceSize))
		out.Seq = p.uint64()
	case ReplPing:
		// No fields.
	case ReplLKH:
		n := p.uint64()
		if p.err == nil && n > MaxReplNodes {
			return ReplDeltaPayload{}, fmt.Errorf("%w: repl delta with %d tree nodes", ErrBadPayload, n)
		}
		if p.err == nil && n > 0 {
			out.Nodes = make([]ReplLKHNode, 0, n)
			for i := uint64(0); i < n && p.err == nil; i++ {
				node, err := parseReplLKHNode(&p)
				if err != nil {
					return ReplDeltaPayload{}, fmt.Errorf("%w: repl delta tree: %v", ErrBadPayload, err)
				}
				out.Nodes = append(out.Nodes, node)
			}
		}
		r := p.uint64()
		if p.err == nil && r > MaxReplNodes {
			return ReplDeltaPayload{}, fmt.Errorf("%w: repl delta with %d removals", ErrBadPayload, r)
		}
		if p.err == nil && r > 0 {
			out.Removed = make([]uint64, 0, r)
			for i := uint64(0); i < r && p.err == nil; i++ {
				out.Removed = append(out.Removed, p.uint64())
			}
		}
	default:
		return ReplDeltaPayload{}, fmt.Errorf("%w: unknown repl delta kind %d", ErrBadPayload, uint8(out.Kind))
	}
	if err := p.finish(); err != nil {
		return ReplDeltaPayload{}, fmt.Errorf("%w: repl delta: %v", ErrBadPayload, err)
	}
	return out, nil
}
