package enclaves

import (
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"enclaves/internal/group"
	"enclaves/internal/member"
	"enclaves/internal/transport"
)

// BenchmarkSessionFootprint measures what an idle member session costs the
// leader's heap: 512 members join an LKH group (rekey on join and leave) in
// one storm over 8 mux sockets, every member reaches the leader's epoch and
// full view, and after runtime.GC() each object still live is attributed by
// its allocation stack, recorded at memory-profile rate 1. An object is the
// leader's when its stack passes through internal/group, the leader's core
// engine or the serving side of the mux. leader-B/session is that heap over
// the sessions; the other metrics split it by the innermost package of the
// module on the stack: outbox (the outbox arrays a queue Push grew), drain
// (arrays a queue PopAll grew: the drain scratch), aead (the AES-GCM
// states internal/crypto builds), engine (internal/core), mux
// (internal/transport), group, lkh and other (sealed payloads and decoded
// frames among them). Run it alone with -benchtime 1x.
func BenchmarkSessionFootprint(b *testing.B) {
	const n, sockets = 512, 8
	prev := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = prev }()
	names := userNames(n)
	keys := benchKeys(names...)
	for i := 0; i < b.N; i++ {
		g, err := group.NewLeader(group.Config{Name: benchLeader, Users: keys, Rekey: group.DefaultRekeyPolicy(), LKH: true})
		if err != nil {
			b.Fatal(err)
		}
		muxes := make([]*transport.Mux, sockets)
		for j := range muxes {
			near, far := net.Pipe()
			go transport.ServeMuxConn(near, transport.MuxConfig{Accept: func(_ string, c transport.Conn) { g.ServeConn(c) }})
			muxes[j] = transport.NewMuxClient(far, transport.MuxConfig{})
		}
		members := make([]*member.Member, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for j, u := range names {
			wg.Add(1)
			go func() {
				defer wg.Done()
				conn, err := muxes[j%sockets].Open("")
				if err == nil {
					members[j], err = member.Join(conn, u, benchLeader, keys[u])
				}
				errs[j] = err
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
		for _, m := range members {
			go drainMember(m)
		}
		waitEpochs(b, g.Epoch, memberEpochs(members))
		for _, m := range members {
			for len(m.Members()) != n {
				time.Sleep(time.Millisecond)
			}
		}
		time.Sleep(100 * time.Millisecond) // the last acks reach the leader
		for range 3 {
			runtime.GC() // the profile lags up to two cycles
		}
		split := leaderHeap(b)
		for part, bytes := range split {
			b.ReportMetric(float64(bytes)/n, part+"-B/session")
		}
		for _, mx := range muxes {
			mx.Close()
		}
		g.Close()
	}
}

// leaderHeap sums the live heap of the memory profile whose allocation
// stacks are the leader's, by part (see BenchmarkSessionFootprint), and in
// total under "leader".
func leaderHeap(b *testing.B) map[string]int64 {
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, false)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, false)
	}
	recs = recs[:n]
	split := make(map[string]int64)
	for _, r := range recs {
		part, leader := "", false
		frames := runtime.CallersFrames(r.Stack())
		for more := true; more; {
			var f runtime.Frame
			f, more = frames.Next()
			fn, ok := strings.CutPrefix(f.Function, "enclaves/internal/")
			if !ok {
				continue
			}
			pkg, fun, _ := strings.Cut(fn, ".")
			leader = leader || pkg == "group" || strings.Contains(fun, "LeaderSession") || fn == "transport.ServeMuxConn"
			if part != "" {
				continue
			}
			switch {
			case pkg == "queue" && strings.HasSuffix(fun, ".Push"):
				part = "outbox"
			case pkg == "queue" && strings.HasSuffix(fun, ".PopAll"):
				part = "drain"
			case pkg == "queue": // a queue's own struct: its caller's
			case fn == "crypto.newAEAD" || fn == "crypto.NewCipher":
				part = "aead"
			case pkg == "core":
				part = "engine"
			case pkg == "transport":
				part = "mux"
			case pkg == "group" || pkg == "lkh":
				part = pkg
			default:
				part = "other"
			}
		}
		if leader {
			split[part] += r.InUseBytes()
			split["leader"] += r.InUseBytes()
		}
	}
	if split["leader"] == 0 {
		b.Fatal("no live leader allocation in the memory profile")
	}
	return split
}
