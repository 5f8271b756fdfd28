//go:build linux

package main

import (
	"crypto/rand"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"enclaves/internal/core"
	"enclaves/internal/crypto"
	"enclaves/internal/group"
	"enclaves/internal/lkh"
	"enclaves/internal/queue"
	"enclaves/internal/transport"
	"enclaves/internal/wire"
)

// Probes call each layer's public functions in-process, in the shapes the
// workloads use (32 B and 4 KiB payloads, 16/128/256/1024-sized groups),
// and report the median cost per call over several rounds. They run in the
// generator process before any daemon exists.

// timeOp runs f n times per round and returns the median round's ns per
// call, and the allocations per call over all rounds.
func timeOp(rounds, n int, f func()) (ns, allocs float64) {
	f() // warm caches and pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	per := make([]float64, rounds)
	for r := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		per[r] = float64(time.Since(start)) / float64(n)
	}
	runtime.ReadMemStats(&after)
	return medianFloat(per), float64(after.Mallocs-before.Mallocs) / float64(rounds*n)
}

type probeSet map[string]metric

func (ps probeSet) set(name string, v float64, unit string) { ps[name] = metric{v, unit} }

// check panics on err: a probe feeds a layer only input the workloads use,
// so a refusal is a bug in the probe or the layer, not an operating error.
func check(err error) {
	if err != nil {
		panic(fmt.Sprintf("bench: probe: %v", err))
	}
}

func must[T any](v T, err error) T {
	check(err)
	return v
}

func randomBytes(n int) []byte {
	b := make([]byte, n)
	must(rand.Read(b))
	return b
}

func runProbes() map[string]metric {
	ps := probeSet{}
	probeCrypto(ps)
	probeWire(ps)
	probeQueue(ps)
	probeTransport(ps)
	probeCore(ps)
	probeLKH(ps)
	probeGroup(ps)
	return ps
}

// appDataEnvelope is the frame a member multicasts: an AppData payload of n
// bytes sealed under a group key.
func appDataEnvelope(c *crypto.Cipher, n int) wire.Envelope {
	env := wire.Envelope{Type: wire.TypeAppData, Sender: "m0", Receiver: "g0"}
	plain := wire.AppDataPayload{Sender: "m0", Epoch: 7, Data: randomBytes(n)}.Marshal()
	env.Payload = must(c.Seal(plain, env.Header()))
	return env
}

func probeCrypto(ps probeSet) {
	key := must(crypto.NewKey())
	c := must(crypto.NewCipher(key))
	ad := wire.Envelope{Type: wire.TypeAppData, Sender: "m0", Receiver: "g0"}.Header()
	for _, n := range []int{32, 4096} {
		plain := randomBytes(n)
		box := must(c.Seal(plain, ad))
		ns, allocs := timeOp(9, 2000, func() { must(c.Seal(plain, ad)) })
		ps.set(fmt.Sprintf("crypto.seal_ns_%d", n), ns, "ns")
		if n == 32 {
			ps.set("crypto.seal_allocs", allocs, "count")
		}
		ns, _ = timeOp(9, 2000, func() { must(c.Open(box, ad)) })
		ps.set(fmt.Sprintf("crypto.open_ns_%d", n), ns, "ns")
	}
	ns, _ := timeOp(9, 500, func() { must(crypto.NewCipher(key)) })
	ps.set("crypto.new_cipher_ns", ns, "ns")
	ns, _ = timeOp(5, 2, func() { crypto.DeriveKey("m0", "g0", password) })
	ps.set("crypto.derive_key_ms", ns/1e6, "ms")
}

func probeWire(ps probeSet) {
	c := must(crypto.NewCipher(must(crypto.NewKey())))
	for _, n := range []int{32, 4096} {
		env := appDataEnvelope(c, n)
		frame := must(wire.EncodeFrame(env))
		ns, allocs := timeOp(9, 5000, func() { must(wire.EncodeFrame(env)) })
		ps.set(fmt.Sprintf("wire.encode_frame_ns_%d", n), ns, "ns")
		if n == 32 {
			ps.set("wire.encode_allocs", allocs, "count")
		}
		ns, _ = timeOp(9, 5000, func() { must(wire.Decode(frame[4:])) })
		ps.set(fmt.Sprintf("wire.decode_ns_%d", n), ns, "ns")
	}
	env := appDataEnvelope(c, 32)
	frame := must(wire.EncodeMuxFrame("g0", 1, wire.MuxData, env))
	ns, _ := timeOp(9, 5000, func() { must(wire.EncodeMuxFrame("g0", 1, wire.MuxData, env)) })
	ps.set("wire.mux_encode_ns", ns, "ns")
	ns, _ = timeOp(9, 5000, func() { must(wire.DecodeMux(frame[4:])) })
	ps.set("wire.mux_decode_ns", ns, "ns")
	ps.set("wire.overhead_bytes_per_msg", float64(len(frame)-32), "B")
}

func probeQueue(ps probeSet) {
	q := queue.New[int]()
	ns, _ := timeOp(9, 20000, func() {
		q.Push(1)
		must(q.Pop())
	})
	ps.set("queue.push_pop_ns", ns, "ns")
	const batch = 64
	var buf []int
	ns, _ = timeOp(9, 500, func() {
		for i := 0; i < batch; i++ {
			q.Push(i)
		}
		buf = must(q.PopAll(buf))
	})
	ps.set("queue.pop_batch_ns_per_item", ns/batch, "ns")
}

func probeTransport(ps probeSet) {
	// One framed TCP connection over loopback: batches of 4 KiB frames
	// behind one flush, timed until the reader has them all.
	l := must(transport.ListenTCP("127.0.0.1:0"))
	defer l.Close()
	const batch = 64
	got := make(chan struct{})
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		for n := 1; ; n++ {
			if _, err := c.Recv(); err != nil {
				return
			}
			if n%batch == 0 {
				got <- struct{}{}
			}
		}
	}()
	cipher := must(crypto.NewCipher(must(crypto.NewKey())))
	tc := must(transport.DialTCP(l.Addr()))
	out := make([]transport.Outgoing, batch)
	for i := range out {
		out[i].Env = appDataEnvelope(cipher, 4096)
	}
	ns, _ := timeOp(7, 30, func() {
		check(tc.SendBatch(out))
		<-got
	})
	tc.Close()
	ps.set("transport.tcp_batch_ns_per_frame", ns/batch, "ns")

	// A mux connection over loopback with an echoing server: the round trip
	// of one 32 B frame on an open stream, and of a stream's first frame.
	nl := must(net.Listen("tcp", "127.0.0.1:0"))
	defer nl.Close()
	go func() {
		nc, err := nl.Accept()
		if err != nil {
			return
		}
		transport.ServeMuxConn(nc, transport.MuxConfig{Accept: func(_ string, c transport.Conn) {
			go func() {
				for {
					env, err := c.Recv()
					if err != nil || c.Send(env) != nil {
						return
					}
				}
			}()
		}})
	}()
	mx := must(transport.DialMux(nl.Addr().String(), transport.MuxConfig{}))
	defer mx.Close()
	env := appDataEnvelope(cipher, 32)
	ping := func(c transport.Conn) {
		check(c.Send(env))
		must(c.Recv())
	}
	stream := must(mx.Open("g0"))
	ns, _ = timeOp(9, 300, func() { ping(stream) })
	ps.set("transport.mux_rtt_us", ns/1e3, "us")
	ns, _ = timeOp(9, 100, func() {
		c := must(mx.Open("g0"))
		ping(c)
		c.Close()
	})
	ps.set("transport.mux_open_us", ns/1e3, "us")
}

// handshake runs the three-message join between fresh engines, no I/O.
func handshake(key crypto.Key) (*core.LeaderSession, *core.MemberSession) {
	m := must(core.NewMemberSession("m0", "g0", key))
	l := must(core.NewLeaderSession("g0", "m0", key))
	dist := must(l.Handle(must(m.Start())))
	ack := must(m.Handle(*dist.Reply))
	must(l.Handle(*ack.Reply))
	return l, m
}

func probeCore(ps probeSet) {
	key := must(crypto.NewKey())
	ns, allocs := timeOp(9, 300, func() { handshake(key) })
	ps.set("core.handshake_us", ns/1e3, "us")
	ps.set("core.handshake_allocs", allocs, "count")
	l, m := handshake(key)
	body := wire.NewGroupKey{Epoch: 2, Key: key}
	ns, _ = timeOp(9, 1000, func() {
		ack := must(m.Handle(*must(l.Send(body))))
		must(l.Handle(*ack.Reply))
	})
	ps.set("core.admin_roundtrip_us", ns/1e3, "us")
}

func probeLKH(ps probeSet) {
	const n = 1024
	t := must(lkh.New(0))
	for i := 0; i < n; i++ {
		check(t.Join(userID(i)))
	}
	must(t.RotateDirty())
	// Leave and rejoin the same member over and over: each is one tree
	// operation with its rotation, timed on its own.
	const ops = 300
	leave, join := make([]float64, ops), make([]float64, ops)
	seals := 0
	for i := 0; i < ops; i++ {
		u := userID(i * 7 % n)
		t0 := time.Now()
		t.Remove(u)
		seals += len(must(t.RotateDirty()))
		t1 := time.Now()
		check(t.Join(u))
		must(t.RotateDirty())
		leave[i], join[i] = float64(t1.Sub(t0)), float64(time.Since(t1))
	}
	ps.set("lkh.rotate_leave_us_1024", medianFloat(leave)/1e3, "us")
	ps.set("lkh.join_us_1024", medianFloat(join)/1e3, "us")
	ps.set("lkh.seals_per_leave_1024", float64(seals)/ops, "count")
}

// thinMember is the least a member can be towards an in-process Leader: it
// joins with the core engine, acknowledges every AdminMsg and counts what
// else arrives, without opening it. The group probes use it so that they
// time the leader, not member-side decryption.
type thinMember struct {
	name   string
	conn   transport.Conn
	engine *core.MemberSession
}

func joinThin(l *group.Leader, leader, name string, key crypto.Key, onData func(), onKey func(epoch uint64)) *thinMember {
	a, b := transport.Pipe()
	check(l.ServeConn(b))
	t := &thinMember{name: name, conn: a, engine: must(core.NewMemberSession(name, leader, key))}
	check(a.Send(must(t.engine.Start())))
	ready := make(chan struct{})
	go func() {
		for {
			env, err := a.Recv()
			if err != nil {
				return
			}
			if env.Type == wire.TypeAppData {
				onData()
				continue
			}
			ev, err := t.engine.Handle(env)
			if err != nil {
				continue
			}
			if ev.Reply != nil && a.Send(*ev.Reply) != nil {
				return
			}
			switch body := ev.Admin.(type) {
			case wire.MemberList:
				close(ready) // the last message of a join
			case wire.NewGroupKey:
				onKey(body.Epoch)
			}
		}
	}()
	<-ready
	return t
}

func probeGroup(ps probeSet) {
	newLeader := func(members int, policy group.RekeyPolicy) (*group.Leader, map[string]crypto.Key) {
		users := make(map[string]crypto.Key, members)
		for i := 0; i < members; i++ {
			users[userID(i)] = must(crypto.NewKey())
		}
		return must(group.NewLeader(group.Config{Name: "g0", Users: users, Rekey: policy})), users
	}

	// Relay: one 4 KiB multicast fanned out to 255 in-memory members.
	{
		const members, rounds = 256, 40
		l, users := newLeader(members, group.RekeyPolicy{})
		var delivered atomic.Int64
		done := make(chan struct{}, 1)
		onData := func() {
			if delivered.Add(1)%(members-1) == 0 {
				done <- struct{}{}
			}
		}
		var sender *thinMember
		for i := 0; i < members; i++ {
			t := joinThin(l, "g0", userID(i), users[userID(i)], onData, func(uint64) {})
			if i == 0 {
				sender = t
			}
		}
		env := wire.Envelope{Type: wire.TypeAppData, Sender: sender.name, Receiver: "g0", Payload: randomBytes(4096)}
		ns, _ := timeOp(5, rounds, func() {
			check(sender.conn.Send(env))
			<-done
		})
		l.Close()
		ps.set("group.relay_ns_per_target_256", ns/(members-1), "ns")
	}

	// Flat rekey: Leader.Rekey until all 16 members hold the new key.
	{
		const members = 16
		l, users := newLeader(members, group.DefaultRekeyPolicy())
		var mu sync.Mutex
		at := make(map[uint64]int)
		done := make(chan struct{}, 1)
		onKey := func(epoch uint64) {
			mu.Lock()
			at[epoch]++
			full := at[epoch] == members
			mu.Unlock()
			if full {
				done <- struct{}{}
			}
		}
		for i := 0; i < members; i++ {
			joinThin(l, "g0", userID(i), users[userID(i)], func() {}, onKey)
		}
		<-done // the last join's key has reached all 16
		ns, _ := timeOp(9, 30, func() {
			check(l.Rekey())
			<-done
		})
		l.Close()
		ps.set("group.rekey_flat_us_16", ns/1e3, "us")
	}

	// Directory: group lookup among 128 precreated groups.
	{
		const groups = 128
		key := must(crypto.NewKey())
		ids := make([]string, groups)
		for i := range ids {
			ids[i] = groupID(i)
		}
		d := must(group.NewDirectory(group.DirectoryConfig{
			NewConfig: func(g string) (group.Config, error) {
				return group.Config{Name: g, Users: map[string]crypto.Key{"m0": key}}, nil
			},
			Precreate: ids,
		}))
		i := 0
		ns, _ := timeOp(9, 20000, func() {
			must(d.Lookup(ids[i%groups]))
			i++
		})
		d.Close()
		ps.set("group.directory_lookup_ns_128", ns, "ns")
	}
}
