package wire

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"enclaves/internal/crypto"
)

// AdminBody is a group-management message body — the field X of the
// AdminMsg exchange (Section 3.2). Concrete bodies: NewGroupKey,
// MemberChanges, MemberList, Heartbeat, PathKeys, KeyBoxes.
type AdminBody interface {
	// AdminKind returns the body's wire tag.
	AdminKind() AdminKind
	// String renders the body for logs.
	String() string
}

// AdminKind tags the concrete AdminBody on the wire.
type AdminKind uint8

// Admin body kinds. Bytes 2 and 3 carried the one-name MemberJoined and
// MemberLeft bodies that MemberChanges replaced, and byte 1 the NewGroupKey
// with separate Joined and Left lists; they are retired, rejected by the
// decoder and never reused.
const (
	AdminMemberList    AdminKind = 4
	AdminHeartbeat     AdminKind = 5
	AdminPathKeys      AdminKind = 6
	AdminMemberChanges AdminKind = 7
	AdminNewGroupKey   AdminKind = 8
	AdminKeyBoxes      AdminKind = 9
)

var adminKindNames = map[AdminKind]string{
	AdminNewGroupKey:   "NewGroupKey",
	AdminMemberList:    "MemberList",
	AdminHeartbeat:     "Heartbeat",
	AdminPathKeys:      "PathKeys",
	AdminMemberChanges: "MemberChanges",
	AdminKeyBoxes:      "KeyBoxes",
}

func (k AdminKind) String() string {
	if s, ok := adminKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("AdminKind(%d)", uint8(k))
}

// MaxDeltaNames bounds the change list of a NewGroupKey or MemberChanges:
// a delta names changes, never a roster (that is MemberList).
const MaxDeltaNames = 64

// NewGroupKey distributes a new group key K'_g with its epoch. Epochs
// increase strictly; members use them to label application data. Changes
// names the membership changes the rotation answers, so a change costs a
// member one AdminMsg, not a notice and then a key; it is empty for a
// rotation no change caused and in a joiner's own copy. Receivers apply the
// changes in order, as a MemberChanges, then the key.
// core.LeaderSession.Send folds keys queued behind one unacknowledged
// AdminMsg into the newest, with every change, up to MaxDeltaNames.
type NewGroupKey struct {
	Epoch   uint64
	Key     crypto.Key
	Changes []MemberChange
}

// AdminKind implements AdminBody.
func (NewGroupKey) AdminKind() AdminKind { return AdminNewGroupKey }

func (b NewGroupKey) String() string {
	return fmt.Sprintf("NewGroupKey(epoch=%d, %s, %v)", b.Epoch, b.Key, b.Changes)
}

// MemberChange is one membership change: Name joined, or left (or was
// expelled) when Left is set. On the wire, as in logs, it is its String:
// the name behind a sign, +name or -name.
type MemberChange struct {
	Name string
	Left bool
}

func (c MemberChange) String() string {
	if c.Left {
		return "-" + c.Name
	}
	return "+" + c.Name
}

// MemberChanges announces membership changes where no key message carries
// them: with the rekey policy off, and for resumptions. Receivers apply
// them in order. A notice is sent as one change; core.LeaderSession.Send
// folds notices queued behind one unacknowledged AdminMsg into one body of
// up to MaxDeltaNames.
type MemberChanges struct {
	Changes []MemberChange
}

// Joined is the notice that name joined the group.
func Joined(name string) MemberChanges { return MemberChanges{[]MemberChange{{Name: name}}} }

// Left is the notice that name left (or was expelled from) the group.
func Left(name string) MemberChanges { return MemberChanges{[]MemberChange{{Name: name, Left: true}}} }

// AdminKind implements AdminBody.
func (MemberChanges) AdminKind() AdminKind { return AdminMemberChanges }

func (b MemberChanges) String() string { return "MemberChanges" + fmt.Sprint(b.Changes) }

// MemberList transfers the complete current membership, sent to a member
// right after it joins ("sends to A the identity of all the other group
// members", Section 2.2).
type MemberList struct {
	Names []string
}

// AdminKind implements AdminBody.
func (MemberList) AdminKind() AdminKind { return AdminMemberList }

func (b MemberList) String() string {
	names := append([]string(nil), b.Names...)
	sort.Strings(names)
	return "MemberList(" + strings.Join(names, ",") + ")"
}

// Heartbeat is a liveness probe. It carries no state change — its value is
// that it rides the ack-gated AdminMsg pipeline under K_a, so the reply the
// leader gets back is an authenticated, fresh-nonce proof that the member
// is alive, at no new wire-protocol surface: to the verified protocol a
// heartbeat is just one more admin message X.
type Heartbeat struct{}

// AdminKind implements AdminBody.
func (Heartbeat) AdminKind() AdminKind { return AdminHeartbeat }

func (Heartbeat) String() string { return "Heartbeat()" }

// PathEntry is one node on a member's leaf-to-root key path.
type PathEntry struct {
	Node uint64
	Ver  uint64
	Key  crypto.Key
}

// MaxPathEntries bounds a PathKeys message and a KeyBoxes body's boxes: a
// sane key tree over MaxReplMembers leaves is under 64 levels deep by an
// astronomical margin.
const MaxPathEntries = 64

// PathKeys hands a member its complete leaf-to-root key path of the
// logical key hierarchy: the leaf it owns, every ancestor key up to the
// root (whose key is the group key of Epoch), all version-stamped. It is
// sent on join and on resume, and later rotations arrive as KeyBoxes.
// Entries are ordered leaf first, root last.
type PathKeys struct {
	Epoch   uint64
	Root    uint64 // node whose key is the group key
	Leaf    uint64 // the member's own leaf
	Entries []PathEntry
}

// AdminKind implements AdminBody.
func (PathKeys) AdminKind() AdminKind { return AdminPathKeys }

func (b PathKeys) String() string {
	return fmt.Sprintf("PathKeys(epoch=%d, root=%d, leaf=%d, %d entries)",
		b.Epoch, b.Root, b.Leaf, len(b.Entries))
}

// GroupKey returns the root entry's key — the group key — if present.
func (b PathKeys) GroupKey() (crypto.Key, bool) {
	for _, e := range b.Entries {
		if e.Node == b.Root {
			return e.Key, true
		}
	}
	return crypto.Key{}, false
}

// appendAdminBody encodes an admin body with its kind tag.
func appendAdminBody(b *crypto.Plaintext, body AdminBody) {
	b.AppendUint8(uint8(body.AdminKind()))
	switch v := body.(type) {
	case NewGroupKey:
		b.AppendUint64(v.Epoch)
		b.AppendKey(v.Key)
		putChanges(b, v.Changes)
	case MemberChanges:
		putChanges(b, v.Changes)
	case MemberList:
		b.AppendUint64(uint64(len(v.Names)))
		names := append([]string(nil), v.Names...)
		sort.Strings(names)
		for _, n := range names {
			b.AppendString(n)
		}
	case Heartbeat:
		// No fields: the kind tag is the whole encoding.
	case PathKeys:
		b.AppendUint64(v.Epoch)
		b.AppendUint64(v.Root)
		b.AppendUint64(v.Leaf)
		b.AppendUint64(uint64(len(v.Entries)))
		for _, e := range v.Entries {
			b.AppendUint64(e.Node)
			b.AppendUint64(e.Ver)
			b.AppendKey(e.Key)
		}
	case KeyBoxes:
		putKeyBoxes(b, v)
	}
}

// putChanges encodes a change list: a one-byte count, then each change as
// its signed name.
func putChanges(b *crypto.Plaintext, changes []MemberChange) {
	b.AppendUint8(uint8(len(changes)))
	for _, c := range changes {
		b.AppendString(c.String())
	}
}

// parseChanges decodes a change list, refusing a count over MaxDeltaNames
// before any name is read and a name that is not behind a + or -.
func parseChanges(p *parser) ([]MemberChange, error) {
	n := p.uint8()
	if n > MaxDeltaNames {
		return nil, fmt.Errorf("%d changes", n)
	}
	out := slices.Grow([]MemberChange(nil), int(n)) // nil when empty
	for ; n > 0 && p.err == nil; n-- {
		if c := p.string(); p.err == nil {
			if c == "" || c[0] != '+' && c[0] != '-' {
				return nil, fmt.Errorf("member change %q", c)
			}
			out = append(out, MemberChange{Name: c[1:], Left: c[0] == '-'})
		}
	}
	return out, nil
}

// UnmarshalAdminBody decodes an admin body.
func UnmarshalAdminBody(data []byte) (AdminBody, error) {
	p := parser{data: data}
	kind := AdminKind(p.uint8())
	switch kind {
	case AdminNewGroupKey:
		out := NewGroupKey{Epoch: p.uint64()}
		raw := p.take(crypto.KeySize)
		changes, err := parseChanges(&p)
		if err == nil {
			err = p.finish()
		}
		if err != nil {
			return nil, fmt.Errorf("%w: new group key: %v", ErrBadPayload, err)
		}
		if out.Key, err = crypto.KeyFromBytes(raw); err != nil {
			return nil, fmt.Errorf("%w: new group key: %v", ErrBadPayload, err)
		}
		out.Changes = changes
		return out, nil
	case AdminMemberChanges:
		changes, err := parseChanges(&p)
		if err == nil {
			err = p.finish()
		}
		if err != nil {
			return nil, fmt.Errorf("%w: member changes: %v", ErrBadPayload, err)
		}
		return MemberChanges{Changes: changes}, nil
	case AdminMemberList:
		n := p.uint64()
		if n > 100000 {
			return nil, fmt.Errorf("%w: member list of %d", ErrBadPayload, n)
		}
		names := make([]string, 0, n)
		for i := uint64(0); i < n; i++ {
			names = append(names, p.string())
		}
		if err := p.finish(); err != nil {
			return nil, fmt.Errorf("%w: member list: %v", ErrBadPayload, err)
		}
		return MemberList{Names: names}, nil
	case AdminHeartbeat:
		if err := p.finish(); err != nil {
			return nil, fmt.Errorf("%w: heartbeat: %v", ErrBadPayload, err)
		}
		return Heartbeat{}, nil
	case AdminPathKeys:
		out := PathKeys{
			Epoch: p.uint64(),
			Root:  p.uint64(),
			Leaf:  p.uint64(),
		}
		n := p.uint64()
		if p.err == nil && n > MaxPathEntries {
			return nil, fmt.Errorf("%w: path of %d entries", ErrBadPayload, n)
		}
		if p.err == nil {
			out.Entries = make([]PathEntry, 0, n)
			for i := uint64(0); i < n && p.err == nil; i++ {
				e := PathEntry{Node: p.uint64(), Ver: p.uint64()}
				raw := p.take(crypto.KeySize)
				if p.err == nil {
					k, err := crypto.KeyFromBytes(raw)
					if err != nil {
						return nil, fmt.Errorf("%w: path keys: %v", ErrBadPayload, err)
					}
					e.Key = k
					out.Entries = append(out.Entries, e)
				}
			}
		}
		if err := p.finish(); err != nil {
			return nil, fmt.Errorf("%w: path keys: %v", ErrBadPayload, err)
		}
		return out, nil
	case AdminKeyBoxes:
		out, err := parseKeyBoxes(&p)
		if err != nil {
			return nil, fmt.Errorf("%w: key boxes: %v", ErrBadPayload, err)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("%w: unknown admin kind %d", ErrBadPayload, uint8(kind))
	}
}
