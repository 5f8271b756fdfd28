package enclaves

// --- B2''': per-rekey cost, flat vs LKH ---------------------------------------
//
// The departure-triggered rekey is the scalability cliff of flat group
// keying: every epoch the leader re-seals the new group key once per member
// (O(n) AEAD seals), while the LKH key tree re-seals only the departed
// member's leaf-to-root path (~arity·log_arity(n) seals, each box carried
// to its subtree in the AdminMsgs its members get for the change anyway).
// These tests and benchmarks measure
// exactly that seal layer — the per-epoch cryptographic work, with the
// session transport factored out — and record the flat-vs-LKH curve up to
// members=65536 in BENCH_scale.json.

import (
	"fmt"
	"testing"
	"time"

	"enclaves/internal/crypto"
	"enclaves/internal/lkh"
	"enclaves/internal/wire"
)

// buildTree returns a clean (fully rotated) key tree holding n members.
func buildTree(tb testing.TB, n, arity int) *lkh.Tree {
	tb.Helper()
	tree, err := lkh.New(arity)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tree.Join(fmt.Sprintf("user%05d", i)); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := tree.RotateDirty(); err != nil {
		tb.Fatal(err)
	}
	return tree
}

// sealUpdates performs the leader's per-box work for one rotation: one
// AEAD seal of the rotated key under the child subtree's current key,
// bound to the box entry's AD (internal/group's sealChain, run once per
// box by the first member writer to reach it). The box then rides each
// subtree member's AdminMsg. It returns the seal count.
func sealUpdates(tb testing.TB, epoch uint64, ups []lkh.Update) int {
	tb.Helper()
	for _, up := range ups {
		c, err := crypto.NewCipher(up.SealKey)
		if err != nil {
			tb.Fatal(err)
		}
		b := wire.KeyBox{
			Node:  uint64(up.Node),
			Ver:   up.Ver,
			Under: uint64(up.Under),
			Epoch: epoch,
			Root:  up.Root,
		}
		if b.Box, err = c.SealPlaintext(wire.BoxPlaintext(up.NewKey), b.AD()); err != nil {
			tb.Fatal(err)
		}
	}
	return len(ups)
}

// memberNames returns the member names user00000..user{n-1}, matching the
// names buildTree joins.
func memberNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("user%05d", i)
	}
	return names
}

// flatCiphers builds the per-member session ciphers a flat-keyed leader
// holds; the flat rekey seals the new group key under every one of them.
func flatCiphers(tb testing.TB, n int) []*crypto.Cipher {
	tb.Helper()
	ciphers := make([]*crypto.Cipher, n)
	for i := range ciphers {
		k, err := crypto.NewKey()
		if err != nil {
			tb.Fatal(err)
		}
		ciphers[i], err = crypto.NewCipher(k)
		if err != nil {
			tb.Fatal(err)
		}
	}
	return ciphers
}

// flatRekey is one flat epoch at the seal layer, doing per member exactly
// what the flat leader's fan-out does (core.LeaderSession.emitAdmin): a
// fresh chained nonce, the member's AdminMsgPayload carrying the NewGroupKey
// body, one AEAD seal under the member's cached session cipher, and the
// member's (necessarily distinct) envelope encoded into a frame. Returns
// the seal count.
func flatRekey(tb testing.TB, ciphers []*crypto.Cipher, names []string, epoch uint64) int {
	tb.Helper()
	key, err := crypto.NewKey()
	if err != nil {
		tb.Fatal(err)
	}
	body := wire.NewGroupKey{Epoch: epoch, Key: key}
	for i, c := range ciphers {
		env := wire.Envelope{Type: wire.TypeAdminMsg, Sender: benchLeader, Receiver: names[i]}
		p, _ := wire.AdminMsgPayload{
			Leader: benchLeader,
			User:   names[i],
			Seq:    epoch,
			Body:   body,
		}.Marshal()
		box, err := c.SealPlaintext(p, env.Header())
		if err != nil {
			tb.Fatal(err)
		}
		env.Payload = box
		if _, err := wire.EncodeFrame(env); err != nil {
			tb.Fatal(err)
		}
	}
	return len(ciphers)
}

// lkhRekey is one LKH churn epoch at the seal layer: one member departs,
// the dirty paths rotate, each box is sealed, and the member
// rejoins (so the tree size is steady across iterations — the rejoined
// path is carried by the NEXT rotation, exactly as under real churn).
// Returns the seal count.
func lkhRekey(tb testing.TB, tree *lkh.Tree, user string, epoch uint64) int {
	tb.Helper()
	if !tree.Remove(user) {
		tb.Fatalf("member %s not in tree", user)
	}
	ups, err := tree.RotateDirty()
	if err != nil {
		tb.Fatal(err)
	}
	n := sealUpdates(tb, epoch, ups)
	if err := tree.Join(user); err != nil {
		tb.Fatal(err)
	}
	return n
}

// TestLKHSealCountLogarithmic pins the tentpole claim at members=65536: a
// departure rekey under LKH performs O(log n) seals — bounded by
// arity·(depth+1) with depth = log_arity(n) — against the flat path's n,
// and the measured wall time of the whole seal layer is at least 10× in
// LKH's favor.
func TestLKHSealCountLogarithmic(t *testing.T) {
	if testing.Short() {
		t.Skip("65536-member tree build in -short mode")
	}
	const n = 65536
	const arity = 4 // depth = log_4(65536) = 8

	tree := buildTree(t, n, arity)
	ups1 := func() []lkh.Update {
		if !tree.Remove("user00000") {
			t.Fatal("member not in tree")
		}
		ups, err := tree.RotateDirty()
		if err != nil {
			t.Fatal(err)
		}
		return ups
	}()
	// One departure dirties one leaf-to-root path: at most depth+1 rotated
	// nodes, each sealing once per child. Allow one extra level for the
	// imbalance a single removal can leave.
	depth := 1
	for v := n; v > 1; v /= arity {
		depth++
	}
	maxSeals := arity * (depth + 1)
	if got := len(ups1); got > maxSeals {
		t.Fatalf("departure rekey cost %d seals at n=%d; O(log n) bound is %d", got, n, maxSeals)
	}
	if len(ups1)*100 >= n {
		t.Fatalf("seal count %d is not o(n) at n=%d", len(ups1), n)
	}
	t.Logf("n=%d arity=%d: departure rekey = %d seals (flat would be %d)", n, arity, len(ups1), n)

	// Wall-clock comparison over departure epochs: remove + rotate + seal
	// on the LKH side vs n seal + encode on the flat side. (The
	// outbox pushes that deliver either variant are O(n) pointer work
	// common to both and excluded from both.)
	ciphers := flatCiphers(t, n)
	names := memberNames(n)
	const rounds = 5

	startFlat := time.Now()
	for i := 0; i < rounds; i++ {
		flatRekey(t, ciphers, names, uint64(i+2))
	}
	flatDur := time.Since(startFlat)

	startLKH := time.Now()
	lkhSeals := 0
	for i := 0; i < rounds; i++ {
		if !tree.Remove(fmt.Sprintf("user%05d", i+1)) {
			t.Fatal("member not in tree")
		}
		ups, err := tree.RotateDirty()
		if err != nil {
			t.Fatal(err)
		}
		lkhSeals += sealUpdates(t, uint64(i+2), ups)
	}
	lkhDur := time.Since(startLKH)

	t.Logf("n=%d: flat %v (%d seals/epoch), lkh %v (%.1f seals/epoch), speedup %.1fx",
		n, flatDur/rounds, n, lkhDur/rounds, float64(lkhSeals)/rounds,
		float64(flatDur)/float64(lkhDur))
	if flatDur < 10*lkhDur {
		t.Errorf("LKH rekey not ≥10x faster than flat at n=%d: flat=%v lkh=%v",
			n, flatDur/rounds, lkhDur/rounds)
	}
}

// BenchmarkRekeySweep sweeps the per-epoch rekey cost from 1024 to 65536
// members, flat vs LKH, recording the curve in BENCH_scale.json: the flat
// side grows linearly in n while the LKH side stays on the ~arity·log(n)
// plateau.
func BenchmarkRekeySweep(b *testing.B) {
	for _, n := range []int{1024, 4096, 16384, 65536} {
		b.Run(fmt.Sprintf("members=%d/variant=flat", n), func(b *testing.B) {
			ciphers := flatCiphers(b, n)
			names := memberNames(n)
			b.ReportAllocs()
			b.ResetTimer()
			seals := 0
			for i := 0; i < b.N; i++ {
				seals += flatRekey(b, ciphers, names, uint64(i+2))
			}
			b.StopTimer()
			recordBench(b, "BENCH_scale.json", "rekey_sweep", map[string]any{
				"benchmark":       "RekeySweep",
				"variant":         "flat",
				"members":         n,
				"ops":             b.N,
				"ns_per_op":       b.Elapsed().Nanoseconds() / int64(b.N),
				"seals_per_rekey": float64(seals) / float64(b.N),
			}, "members", "variant")
		})
		b.Run(fmt.Sprintf("members=%d/variant=lkh", n), func(b *testing.B) {
			tree := buildTree(b, n, lkh.DefaultArity)
			b.ReportAllocs()
			b.ResetTimer()
			seals := 0
			for i := 0; i < b.N; i++ {
				seals += lkhRekey(b, tree, fmt.Sprintf("user%05d", i%n), uint64(i+2))
			}
			b.StopTimer()
			recordBench(b, "BENCH_scale.json", "rekey_sweep", map[string]any{
				"benchmark":       "RekeySweep",
				"variant":         "lkh",
				"members":         n,
				"arity":           lkh.DefaultArity,
				"ops":             b.N,
				"ns_per_op":       b.Elapsed().Nanoseconds() / int64(b.N),
				"seals_per_rekey": float64(seals) / float64(b.N),
			}, "members", "variant")
		})
	}
}
