// Package enclaves holds the top-level benchmark harness (experiments
// B1-B5 of DESIGN.md). The paper itself reports no performance numbers —
// its evaluation is the formal verification, regenerated by cmd/verify and
// the checker tests — so these benchmarks characterize the runtime
// implementation and the checker, preserving the paper's qualitative
// claims: the improved handshake saves the pre-authentication round trip,
// while group management pays one ack round trip per message in exchange
// for replay protection.
package enclaves

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"enclaves/internal/core"
	"enclaves/internal/crypto"
	"enclaves/internal/faultnet"
	"enclaves/internal/group"
	"enclaves/internal/member"
	"enclaves/internal/symbolic"
	"enclaves/internal/transport"
	"enclaves/internal/wire"
)

const benchLeader = "leader"

func benchKeys(users ...string) map[string]crypto.Key {
	keys := make(map[string]crypto.Key, len(users))
	for _, u := range users {
		keys[u] = crypto.DeriveKey(u, benchLeader, u+"-pw")
	}
	return keys
}

func userNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("user%03d", i)
	}
	return names
}

// --- B1: handshake latency ----------------------------------------------------

// BenchmarkHandshake measures a complete join/leave cycle over the
// in-memory network. The improved protocol needs one round trip fewer than
// the original one (no pre-authentication exchange), at identical
// cryptographic cost per message.
func BenchmarkHandshake(b *testing.B) {
	b.Run("improved", func(b *testing.B) {
		keys := benchKeys("alice")
		g, err := group.NewLeader(group.Config{Name: benchLeader, Users: keys})
		if err != nil {
			b.Fatal(err)
		}
		net := transport.NewMemNetwork()
		defer net.Close()
		l, err := net.Listen(benchLeader)
		if err != nil {
			b.Fatal(err)
		}
		go g.Serve(l)
		defer g.Close()

		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			conn, err := net.Dial(benchLeader)
			if err != nil {
				b.Fatal(err)
			}
			m, err := member.Join(conn, "alice", benchLeader, keys["alice"])
			if err != nil {
				b.Fatal(err)
			}
			if err := m.Leave(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- B2/B3: rekey distribution cost vs group size ----------------------------

// BenchmarkRekey measures distributing a new group key to every member and
// waiting until all of them have installed it, for growing group sizes.
// The improved protocol's per-member AdminMsg+Ack exchange costs one round
// trip per member where the original new_key was fire-and-forget (and
// replayable — that is the trade the paper quantifies qualitatively).
func BenchmarkRekey(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
		names := userNames(n)
		b.Run(fmt.Sprintf("improved/members=%d", n), func(b *testing.B) {
			keys := benchKeys(names...)
			g, err := group.NewLeader(group.Config{Name: benchLeader, Users: keys})
			if err != nil {
				b.Fatal(err)
			}
			net := transport.NewMemNetwork()
			defer net.Close()
			l, err := net.Listen(benchLeader)
			if err != nil {
				b.Fatal(err)
			}
			go g.Serve(l)
			defer g.Close()

			members := make([]*member.Member, n)
			for i, u := range names {
				conn, err := net.Dial(benchLeader)
				if err != nil {
					b.Fatal(err)
				}
				members[i], err = member.Join(conn, u, benchLeader, keys[u])
				if err != nil {
					b.Fatal(err)
				}
				go drainMember(members[i])
			}
			waitMembers(b, g.Members, n)
			waitEpochs(b, g.Epoch, memberEpochs(members))

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := g.Rekey(); err != nil {
					b.Fatal(err)
				}
				waitEpochs(b, g.Epoch, memberEpochs(members))
			}
		})
	}
}

// The epoch snapshots reuse one buffer across polls: waitEpochs runs inside
// benchmark timed regions, and a fresh slice per poll would charge the
// convergence loop's allocations to the protocol under test.
func memberEpochs(members []*member.Member) func() []uint64 {
	out := make([]uint64, len(members))
	return func() []uint64 {
		for i, m := range members {
			out[i] = m.Epoch()
		}
		return out
	}
}

func waitMembers(b *testing.B, members func() []string, n int) {
	b.Helper()
	// Generous: at members=4096 on a small box the leader is still draining
	// the join storm's quadratic admin backlog when this is first polled.
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		if len(members()) == n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	b.Fatal("members never registered")
}

func waitEpochs(b *testing.B, leaderEpoch func() uint64, epochs func() []uint64) {
	b.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		want := leaderEpoch()
		ok := true
		for _, e := range epochs() {
			if e != want {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		// Yield instead of sleeping: on a mostly-idle host (CI runners are
		// often single-core) a timed sleep parks the last running thread, and
		// every poll then pays the OS idle-wakeup latency — dominating the
		// microseconds of protocol work this measures. Gosched keeps the
		// scheduler hot, runs the protocol goroutines, and still fires timers.
		runtime.Gosched()
	}
	b.Fatal("epochs never converged")
}

func drainMember(m *member.Member) {
	for {
		if _, err := m.Next(); err != nil {
			return
		}
	}
}

// --- B2': application multicast throughput -----------------------------------

// BenchmarkMulticast measures member-to-member application data through the
// leader relay, per payload size.
func BenchmarkMulticast(b *testing.B) {
	for _, size := range []int{64, 1024, 16384} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			keys := benchKeys("alice", "bob")
			g, err := group.NewLeader(group.Config{Name: benchLeader, Users: keys})
			if err != nil {
				b.Fatal(err)
			}
			net := transport.NewMemNetwork()
			defer net.Close()
			l, err := net.Listen(benchLeader)
			if err != nil {
				b.Fatal(err)
			}
			go g.Serve(l)
			defer g.Close()

			connA, err := net.Dial(benchLeader)
			if err != nil {
				b.Fatal(err)
			}
			alice, err := member.Join(connA, "alice", benchLeader, keys["alice"])
			if err != nil {
				b.Fatal(err)
			}
			connB, err := net.Dial(benchLeader)
			if err != nil {
				b.Fatal(err)
			}
			bob, err := member.Join(connB, "bob", benchLeader, keys["bob"])
			if err != nil {
				b.Fatal(err)
			}
			waitEpochs(b, g.Epoch, memberEpochs([]*member.Member{alice, bob}))

			payload := make([]byte, size)
			received := 0
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := alice.SendData(payload); err != nil {
					b.Fatal(err)
				}
				for received <= i {
					ev, err := bob.Next()
					if err != nil {
						b.Fatal(err)
					}
					if ev.Kind == member.EventData {
						received++
					}
				}
			}
		})
	}
}

// --- B2'': relay fan-out throughput -------------------------------------------

// joinAll joins every named user through the network with bounded
// concurrency — at thousands of members a sequential join loop is the
// setup bottleneck, not the protocol under test.
func joinAll(tb testing.TB, net *transport.MemNetwork, names []string, keys map[string]crypto.Key) []*member.Member {
	tb.Helper()
	members := make([]*member.Member, len(names))
	errs := make([]error, len(names))
	sem := make(chan struct{}, 64)
	var wg sync.WaitGroup
	for i, u := range names {
		wg.Add(1)
		go func(i int, u string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			conn, err := net.Dial(benchLeader)
			if err != nil {
				errs[i] = err
				return
			}
			members[i], errs[i] = member.Join(conn, u, benchLeader, keys[u])
		}(i, u)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			tb.Fatal(err)
		}
	}
	return members
}

// BenchmarkRelayFanout measures the leader's 1-sender-to-N-members relay
// over in-memory pipes: one SendData, N decrypted deliveries. This is the
// hot path the throughput overhaul targets — per-op allocations count the
// AEAD, encode, and queue cost of the whole fan-out. The sweep from 8 to
// 4096 members exercises the registry's lock-free snapshot and the
// parallel fan-out pool (small groups stay on the sequential inline path by
// design).
func BenchmarkRelayFanout(b *testing.B) {
	const payloadSize = 256
	for _, n := range []int{2, 8, 64, 512, 4096} {
		b.Run(fmt.Sprintf("members=%d", n), func(b *testing.B) {
			names := userNames(n + 1) // names[0] sends, the rest receive
			keys := benchKeys(names...)
			// The outbox bound scales with the group: the default 1024 is a
			// slow-consumer tripwire, but during a 4096-member join storm on
			// a small box the writer goroutines legitimately run thousands
			// of broadcasts behind, and this benchmark measures relay cost,
			// not eviction policy. The bound is a limit, not a preallocation.
			g, err := group.NewLeader(group.Config{Name: benchLeader, Users: keys, OutboxLimit: 4*n + 1024})
			if err != nil {
				b.Fatal(err)
			}
			net := transport.NewMemNetwork()
			defer net.Close()
			l, err := net.Listen(benchLeader)
			if err != nil {
				b.Fatal(err)
			}
			go g.Serve(l)
			defer g.Close()

			members := joinAll(b, net, names, keys)
			waitMembers(b, g.Members, n+1)
			waitEpochs(b, g.Epoch, memberEpochs(members))
			sender, receivers := members[0], members[1:]
			go drainMember(sender)

			payload := make([]byte, payloadSize)
			// Barrier multicast: every receiver consumes events in order, so
			// seeing this probe's data event proves its join-era admin backlog
			// (O(members) MemberJoined deliveries) is fully drained — the
			// timed loop then measures pure relay, not setup residue.
			if err := sender.SendData(payload); err != nil {
				b.Fatal(err)
			}
			for _, r := range receivers {
				for {
					ev, err := r.Next()
					if err != nil {
						b.Fatal(err)
					}
					if ev.Kind == member.EventData {
						break
					}
				}
			}

			b.SetBytes(int64(payloadSize * n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sender.SendData(payload); err != nil {
					b.Fatal(err)
				}
				for _, r := range receivers {
					for {
						ev, err := r.Next()
						if err != nil {
							b.Fatal(err)
						}
						if ev.Kind == member.EventData {
							break
						}
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/msg")
		})
	}
}

// --- ablation: ack-gated admin pipeline, engine only --------------------------

// BenchmarkAdminPipeline measures the sans-IO engines alone: one admin body
// through Send -> member Handle -> leader Handle (ack), no network, no
// goroutines. This isolates the pure protocol + AEAD cost of the verified
// pipeline from transport effects.
func BenchmarkAdminPipeline(b *testing.B) {
	longTerm := crypto.DeriveKey("alice", benchLeader, "pw")
	m, err := core.NewMemberSession("alice", benchLeader, longTerm)
	if err != nil {
		b.Fatal(err)
	}
	l, err := core.NewLeaderSession(benchLeader, "alice", longTerm)
	if err != nil {
		b.Fatal(err)
	}
	initReq, err := m.Start()
	if err != nil {
		b.Fatal(err)
	}
	lev, err := l.Handle(initReq)
	if err != nil {
		b.Fatal(err)
	}
	mev, err := m.Handle(*lev.Reply)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := l.Handle(*mev.Reply); err != nil {
		b.Fatal(err)
	}

	body := wire.MemberJoined{Name: "bob"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env, err := l.Send(body)
		if err != nil {
			b.Fatal(err)
		}
		mev, err := m.Handle(*env)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := l.Handle(*mev.Reply); err != nil {
			b.Fatal(err)
		}
	}
}

// --- B5: symbolic algebra primitives ------------------------------------------

// benchTrace builds a representative trace-contents set: the messages of a
// full improved-protocol session.
func benchTrace() symbolic.Set {
	a, l := symbolic.Agent("A"), symbolic.Agent("L")
	pa := symbolic.LongTermKey("A")
	ka := symbolic.SessionKey(1)
	n := symbolic.Nonce
	return symbolic.NewSet(
		symbolic.Enc(symbolic.Tuple(a, l, n(1)), pa),
		symbolic.Enc(symbolic.Tuple(l, a, n(1), n(2), ka), pa),
		symbolic.Enc(symbolic.Tuple(a, l, n(2), n(3)), ka),
		symbolic.Enc(symbolic.Tuple(l, a, n(3), n(4), symbolic.Data("x1")), ka),
		symbolic.Enc(symbolic.Tuple(a, l, n(4), n(5)), ka),
		symbolic.Enc(symbolic.Pair(a, l), ka),
	)
}

// BenchmarkSymbolicAnalz measures the Analz fixpoint over a session trace
// plus the session key (everything opens).
func BenchmarkSymbolicAnalz(b *testing.B) {
	s := benchTrace()
	s.Add(symbolic.SessionKey(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if symbolic.Analz(s).Len() == 0 {
			b.Fatal("empty closure")
		}
	}
}

// BenchmarkSymbolicParts measures the Parts closure.
func BenchmarkSymbolicParts(b *testing.B) {
	s := benchTrace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if symbolic.Parts(s).Len() == 0 {
			b.Fatal("empty parts")
		}
	}
}

// BenchmarkSymbolicCanSynth measures synthesizability tests.
func BenchmarkSymbolicCanSynth(b *testing.B) {
	know := symbolic.Analz(benchTrace())
	target := symbolic.Enc(
		symbolic.Tuple(symbolic.Agent("A"), symbolic.Agent("L"), symbolic.Nonce(2)),
		symbolic.LongTermKey("A"),
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if symbolic.CanSynth(target, know) {
			b.Fatal("secret synthesized")
		}
	}
}

// BenchmarkSymbolicIdeal measures coideal membership, the inner loop of the
// Section 5.2 secrecy check.
func BenchmarkSymbolicIdeal(b *testing.B) {
	s := symbolic.NewSet(symbolic.SessionKey(1), symbolic.LongTermKey("A"))
	trace := benchTrace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !symbolic.SetInCoideal(trace, s) {
			b.Fatal("trace escaped the coideal")
		}
	}
}

// --- crypto primitives ---------------------------------------------------------

// BenchmarkSealOpen measures the AEAD round trip at protocol message size:
// uncached rebuilds the AES key schedule and GCM tables on every call (the
// one-shot crypto.Seal/Open path), cached amortizes them through a
// crypto.Cipher — the difference is what caching buys every session and
// group-key message on the hot path.
func BenchmarkSealOpen(b *testing.B) {
	k, err := crypto.NewKey()
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 96) // typical AdminMsg plaintext
	ad := []byte{1, 2, 3}
	b.Run("uncached", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			box, err := crypto.Seal(k, payload, ad)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := crypto.Open(k, box, ad); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		c, err := crypto.NewCipher(k)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			box, err := c.Seal(payload, ad)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := c.Open(box, ad); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- join storm: concurrent authentications -----------------------------------

// BenchmarkJoinStorm measures N members authenticating concurrently against
// one leader (per-op = the whole storm). The plain members=N runs keep the
// historical no-rekey-policy shape; the rekey=immediate vs rekey=coalesced
// pair quantifies what the coalescing window buys under churn — a storm of
// k OnJoin rotations collapsing into one or two — reported as epochs/storm.
func BenchmarkJoinStorm(b *testing.B) {
	storm := func(b *testing.B, n int, cfg group.Config) {
		names := userNames(n)
		keys := benchKeys(names...)
		cfg.Name = benchLeader
		cfg.Users = keys
		g, err := group.NewLeader(cfg)
		if err != nil {
			b.Fatal(err)
		}
		net := transport.NewMemNetwork()
		defer net.Close()
		l, err := net.Listen(benchLeader)
		if err != nil {
			b.Fatal(err)
		}
		go g.Serve(l)
		defer g.Close()

		rekeying := cfg.Rekey.OnJoin
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			epochBefore := g.Epoch()
			members := make([]*member.Member, n)
			errs := make([]error, n)
			var wg sync.WaitGroup
			for j, u := range names {
				wg.Add(1)
				go func(j int, u string) {
					defer wg.Done()
					conn, err := net.Dial(benchLeader)
					if err != nil {
						errs[j] = err
						return
					}
					members[j], errs[j] = member.Join(conn, u, benchLeader, keys[u])
				}(j, u)
			}
			wg.Wait()
			for j := range members {
				if errs[j] != nil {
					b.Fatal(errs[j])
				}
			}
			if rekeying {
				// The storm is over once its rotation(s) — one per join when
				// immediate, the window's fold when coalesced — have reached
				// every member. Each member acks its own admin stream in the
				// background; this just waits for convergence. Under
				// coalescing the epoch must actually move first, else members
				// "converge" on the pre-storm epoch before the window fires
				// and the timed region would exclude the one rotation it
				// exists to measure.
				for _, m := range members {
					go drainMember(m)
				}
				for g.Epoch() == epochBefore {
					runtime.Gosched()
				}
				waitEpochs(b, g.Epoch, memberEpochs(members))
			}
			b.StopTimer()
			for _, m := range members {
				if err := m.Leave(); err != nil {
					b.Fatal(err)
				}
			}
			waitMembers(b, g.Members, 0)
			b.StartTimer()
		}
		b.StopTimer()
		// Epoch 1 is the initial key; every increment beyond it was a storm
		// rotation (leaves never rotate here — the policy is OnJoin only).
		b.ReportMetric(float64(g.Epoch()-1)/float64(b.N), "epochs/storm")
	}

	for _, n := range []int{4, 16} {
		b.Run(fmt.Sprintf("members=%d", n), func(b *testing.B) {
			storm(b, n, group.Config{})
		})
	}
	const n = 64
	b.Run(fmt.Sprintf("members=%d/rekey=immediate", n), func(b *testing.B) {
		storm(b, n, group.Config{Rekey: group.RekeyPolicy{OnJoin: true}})
	})
	b.Run(fmt.Sprintf("members=%d/rekey=coalesced", n), func(b *testing.B) {
		storm(b, n, group.Config{
			Rekey:         group.RekeyPolicy{OnJoin: true},
			RekeyCoalesce: 2 * time.Millisecond,
		})
	})
}

// --- B6: liveness layer ------------------------------------------------------

// BenchmarkHeartbeat measures one liveness probe round at the engine level:
// the leader seals a Heartbeat AdminMsg, the member verifies and acks it,
// and the leader verifies the ack. This is the steady-state cost of proving
// one idle member alive, and rides the same nonce-chained pipeline as every
// other admin message (a heartbeat ack is an authenticated freshness proof,
// not a bare TCP keepalive).
func BenchmarkHeartbeat(b *testing.B) {
	longTerm := crypto.DeriveKey("alice", benchLeader, "pw")
	m, err := core.NewMemberSession("alice", benchLeader, longTerm)
	if err != nil {
		b.Fatal(err)
	}
	l, err := core.NewLeaderSession(benchLeader, "alice", longTerm)
	if err != nil {
		b.Fatal(err)
	}
	initReq, err := m.Start()
	if err != nil {
		b.Fatal(err)
	}
	lev, err := l.Handle(initReq)
	if err != nil {
		b.Fatal(err)
	}
	mev, err := m.Handle(*lev.Reply)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := l.Handle(*mev.Reply); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env, err := l.Send(wire.Heartbeat{})
		if err != nil {
			b.Fatal(err)
		}
		mev, err := m.Handle(*env)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := l.Handle(*mev.Reply); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdminBroadcast measures a full runtime rekey broadcast (the
// ack-gated NewGroupKey fan-out) over clean links versus links with seeded
// fault injection. The faulty plan duplicates, reorders, and delays frames
// but drops NOTHING: a dropped ack would escalate to an ack-deadline
// eviction, which is the liveness layer working as designed but would turn
// the benchmark into a measurement of rejoin churn. What this shows is the
// latency cost of surviving a merely-degraded network.
func BenchmarkAdminBroadcast(b *testing.B) {
	const n = 8
	run := func(b *testing.B, dial func(*transport.MemNetwork) func() (transport.Conn, error)) {
		names := userNames(n)
		keys := benchKeys(names...)
		g, err := group.NewLeader(group.Config{Name: benchLeader, Users: keys})
		if err != nil {
			b.Fatal(err)
		}
		net := transport.NewMemNetwork()
		defer net.Close()
		l, err := net.Listen(benchLeader)
		if err != nil {
			b.Fatal(err)
		}
		go g.Serve(l)
		defer g.Close()

		d := dial(net)
		members := make([]*member.Member, n)
		for i, u := range names {
			conn, err := d()
			if err != nil {
				b.Fatal(err)
			}
			members[i], err = member.Join(conn, u, benchLeader, keys[u])
			if err != nil {
				b.Fatal(err)
			}
			go drainMember(members[i])
		}
		waitMembers(b, g.Members, n)
		waitEpochs(b, g.Epoch, memberEpochs(members))

		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := g.Rekey(); err != nil {
				b.Fatal(err)
			}
			waitEpochs(b, g.Epoch, memberEpochs(members))
		}
	}

	b.Run(fmt.Sprintf("clean/members=%d", n), func(b *testing.B) {
		run(b, func(net *transport.MemNetwork) func() (transport.Conn, error) {
			return func() (transport.Conn, error) { return net.Dial(benchLeader) }
		})
	})
	b.Run(fmt.Sprintf("faulty/members=%d", n), func(b *testing.B) {
		run(b, func(net *transport.MemNetwork) func() (transport.Conn, error) {
			fnet := faultnet.NewNetwork(net.Dial, faultnet.Plan{
				Seed:     99,
				Outbound: faultnet.DirFaults{Dup: 0.05, Reorder: 0.10, DelayMin: 50 * time.Microsecond, DelayMax: 200 * time.Microsecond},
				Inbound:  faultnet.DirFaults{Dup: 0.05, Reorder: 0.10, DelayMin: 50 * time.Microsecond, DelayMax: 200 * time.Microsecond},
			})
			return func() (transport.Conn, error) { return fnet.Dial(benchLeader) }
		})
	})
}
