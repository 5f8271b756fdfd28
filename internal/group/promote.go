package group

import (
	"errors"
	"fmt"
	"sort"

	"enclaves/internal/core"
	"enclaves/internal/lkh"
	"enclaves/internal/replica"
)

// Promote builds a Leader from a standby's replicated state after the
// primary has been declared dead. The promoted leader:
//
//   - assumes the PRIMARY's identity — members derived their long-term keys
//     binding that leader name, and resumption authenticates against it;
//   - seeds group key, epoch, audit sequence and the per-member resumable
//     session table from the replica;
//   - immediately forces exactly one rekey, so the key a compromised
//     ex-primary still holds dies with the promotion: resumed members
//     receive the fresh post-promotion key inside their ResumeAck and never
//     hold a pre-promotion key.
//
// Members that hit ErrLeaderSilent re-attach through the resumption
// sub-protocol (core.ResumeLeaderSession / resumeHandshake) under their
// existing session keys — no password re-handshake, no O(n) re-enrollment
// storm. Sessions whose replicated nonce lags (an ack in flight when the
// primary died) fail the freshness check and fall back to the ordinary
// join.
//
// cfg.Name is overridden by the replicated primary identity; everything
// else (Users, policies, liveness, even a ReplKey for a next-generation
// standby) applies as in NewLeader.
func Promote(cfg Config, st replica.State) (*Leader, error) {
	if st.Primary == "" {
		return nil, errors.New("group: replica has no primary identity")
	}
	if !st.GroupKey.Valid() {
		return nil, errors.New("group: replica has no group key (standby never synced)")
	}
	cfg.Name = st.Primary
	// A replicated key tree is authoritative over the standby's own flags:
	// the members out there hold path keys, and the promoted leader must
	// keep speaking LKH to them (and vice versa — no tree, no LKH).
	cfg.LKH = len(st.Tree) > 0
	if st.LKHArity >= 2 {
		cfg.LKHArity = st.LKHArity
	}
	g, err := NewLeader(cfg)
	if err != nil {
		return nil, err
	}

	g.mu.Lock()
	g.groupKey = st.GroupKey
	g.epoch = st.Epoch
	g.log.seed(st.AuditSeq)
	if g.tree != nil {
		recs := make([]lkh.Record, 0, len(st.Tree))
		for _, n := range st.Tree {
			recs = append(recs, fromReplNode(n))
		}
		sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
		tree, err := lkh.FromRecords(st.LKHArity, recs)
		if err != nil {
			// Corrupt replica: keep the fresh empty tree. Resuming members
			// get brand-new leaves and paths — the O(log n) promotion
			// degrades to full re-keying, never to a secrecy gap.
			g.logf("group: replicated key tree rejected (%v); rebuilding from scratch", err)
		} else {
			g.tree = tree
			g.groupKey = tree.RootKey()
		}
	}
	g.resumable = make(map[string]core.SessionState, len(st.Members))
	for user := range st.Members {
		if _, known := g.users[user]; !known {
			// A session for a user this standby is not configured to serve
			// cannot be resumed: it is refused and will rejoin elsewhere.
			// The audit stream records the drop as a departure, so resumes
			// plus fresh joins reconcile exactly against the pre-crash
			// membership; its path keys (if any) rotate with the forced
			// rotation below.
			g.logf("group: replicated session for unknown user %q dropped", user)
			g.log.record(change{kind: changeLeft, user: user, epoch: g.epoch, detail: "not resumable on standby"})
			if g.tree != nil {
				g.tree.Remove(user)
			}
			continue
		}
		ss, _ := st.SessionState(user)
		g.resumable[user] = ss
	}
	// The forced post-promotion rotation (exactly one: rekeyLocked records
	// the single Rekeyed change). The registry is still empty, so the
	// broadcast has no receivers; resuming members get the new key in
	// their ResumeAck, and late rejoiners through the join route. Under LKH
	// the rotation covers the root plus every path the replica recorded
	// dirty rather than cutting a whole new flat key.
	if err := g.rekeyLocked("promotion", nil, ""); err != nil {
		g.mu.Unlock()
		g.Close()
		return nil, fmt.Errorf("group: post-promotion rekey: %w", err)
	}
	resumable := len(g.resumable)
	epoch := g.epoch
	g.mu.Unlock()

	g.logf("group: promoted as %q: %d resumable sessions, epoch %d", g.name, resumable, epoch)
	return g, nil
}

// ResumableSessions reports how many replicated sessions are still awaiting
// resumption (for tests and operational introspection).
func (g *Leader) ResumableSessions() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.resumable)
}
