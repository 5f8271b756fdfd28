package enclaves

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"enclaves/internal/crypto"
	"enclaves/internal/group"
	"enclaves/internal/member"
	"enclaves/internal/transport"
)

// chaosTCPProxy is a faultnet-style adversary for the byte layer: a loopback
// TCP proxy that forwards traffic in tiny randomly-sized chunks with seeded
// random forwarding delays. Where internal/faultnet perturbs whole envelopes,
// this perturbs the stream itself — every length prefix, mux header, and AEAD
// body gets split across arbitrary read boundaries — so it exercises exactly
// the partial-read/partial-write handling of the one TCP framing, the
// group-multiplexing layer, that a switch under pressure would.
type chaosTCPProxy struct {
	l      net.Listener
	target string
	seed   int64
	wg     sync.WaitGroup

	mu    sync.Mutex
	conns []net.Conn
	next  int64
}

func startChaosProxy(t *testing.T, target string, seed int64) *chaosTCPProxy {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &chaosTCPProxy{l: l, target: target, seed: seed}
	p.wg.Add(1)
	go p.acceptLoop()
	t.Cleanup(p.Close)
	return p
}

func (p *chaosTCPProxy) Addr() string { return p.l.Addr().String() }

func (p *chaosTCPProxy) Close() {
	p.l.Close()
	p.mu.Lock()
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *chaosTCPProxy) track(c net.Conn) {
	p.mu.Lock()
	p.conns = append(p.conns, c)
	p.mu.Unlock()
}

func (p *chaosTCPProxy) acceptLoop() {
	defer p.wg.Done()
	for {
		in, err := p.l.Accept()
		if err != nil {
			return
		}
		out, err := net.Dial("tcp", p.target)
		if err != nil {
			in.Close()
			continue
		}
		p.track(in)
		p.track(out)
		// Per-direction seeds derived deterministically from the proxy seed
		// and connection order, so a failing seed replays the same chunking.
		p.mu.Lock()
		s := p.next
		p.next += 2
		p.mu.Unlock()
		p.wg.Add(2)
		go p.pump(out, in, p.seed+s)
		go p.pump(in, out, p.seed+s+1)
	}
}

// pump forwards src to dst in chunks of 1..16 bytes, sleeping a little
// before a quarter of the chunks: partial writes on one side, delayed reads
// on the other.
func (p *chaosTCPProxy) pump(dst, src net.Conn, seed int64) {
	defer p.wg.Done()
	rng := rand.New(rand.NewSource(seed))
	buf := make([]byte, 4096)
	for {
		n, err := src.Read(buf)
		for off := 0; off < n; {
			k := 1 + rng.Intn(16)
			if off+k > n {
				k = n - off
			}
			if rng.Intn(4) == 0 {
				time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
			}
			if _, werr := dst.Write(buf[off : off+k]); werr != nil {
				return
			}
			off += k
		}
		if err != nil {
			// Propagate the close so leaves complete their round trip.
			dst.Close()
			return
		}
	}
}

// nextData drains events until application data arrives (joins and rekeys
// pass through during churn).
func nextData(t *testing.T, mb *member.Member) member.Event {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no data event before deadline")
		}
		ev, err := mb.Next()
		if err != nil {
			t.Fatalf("event stream died: %v", err)
		}
		if ev.Kind == member.EventData {
			return ev
		}
	}
}

// TestChaosTCPRoundTrip runs the full join/broadcast/leave protocol —
// several groups on one directory, members of each on different sockets —
// through the byte-chunking proxy. Correctness bar: every handshake completes, every
// multicast arrives intact and in order, and departures still trigger the
// on-leave rekey, no matter how the stream is sliced.
func TestChaosTCPRoundTrip(t *testing.T) {
	for _, seed := range []int64{1, 20010621, 424242} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			chaosTCPRoundTrip(t, seed)
		})
	}
}

func chaosTCPRoundTrip(t *testing.T, seed int64) {
	dir, err := group.NewDirectory(group.DirectoryConfig{
		NewConfig: func(g string) (group.Config, error) {
			users := map[string]crypto.Key{
				"m0": crypto.DeriveKey("m0", g, "pw-m0"),
				"m1": crypto.DeriveKey("m1", g, "pw-m1"),
			}
			return group.Config{Name: g, Tenant: g, Users: users, Rekey: group.DefaultRekeyPolicy()}, nil
		},
		Precreate:  []string{"main"},
		Default:    "main",
		MaxDynamic: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go dir.Serve(nl)
	t.Cleanup(func() {
		nl.Close()
		dir.Close()
	})
	proxy := startChaosProxy(t, nl.Addr().String(), seed)

	join := func(c transport.Conn, g, u string) *member.Member {
		t.Helper()
		mb, err := member.Join(c, u, g, crypto.DeriveKey(u, g, "pw-"+u))
		if err != nil {
			t.Fatalf("join %s/%s: %v", g, u, err)
		}
		if err := mb.WaitReady(15 * time.Second); err != nil {
			t.Fatalf("ready %s/%s: %v", g, u, err)
		}
		return mb
	}

	// Two client sockets through the proxy, so every group's traffic crosses
	// mangled streams in both directions.
	muxB, err := transport.DialMux(proxy.Addr(), transport.MuxConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer muxB.Close()
	muxC, err := transport.DialMux(proxy.Addr(), transport.MuxConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer muxC.Close()

	open := func(m *transport.Mux, g string) transport.Conn {
		t.Helper()
		c, err := m.Open(g)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	m0 := join(open(muxC, "main"), "main", "m0")
	defer m0.Leave()
	m1 := join(open(muxB, "main"), "main", "m1")
	groups := []string{"side0", "side1"}
	side := make(map[string][2]*member.Member, len(groups))
	for _, g := range groups {
		side[g] = [2]*member.Member{
			join(open(muxB, g), g, "m0"),
			join(open(muxC, g), g, "m1"),
		}
	}

	// Broadcast round trips in every group, both directions, several
	// messages each so frames straddle many chunk boundaries.
	pairs := [][2]*member.Member{{m0, m1}}
	for _, g := range groups {
		pairs = append(pairs, side[g])
	}
	for pi, pair := range pairs {
		for i := 0; i < 5; i++ {
			msg := fmt.Sprintf("ping %d from pair %d: %s", i, pi, string(make([]byte, 64)))
			if err := pair[i%2].SendData([]byte(msg)); err != nil {
				t.Fatal(err)
			}
			if got := nextData(t, pair[(i+1)%2]); string(got.Data) != msg {
				t.Fatalf("pair %d msg %d corrupted: got %q", pi, i, got.Data)
			}
		}
	}

	// Leaves round-trip too: each departure must fire the on-leave rekey at
	// the surviving member, with the epoch advancing.
	for _, g := range groups {
		pair := side[g]
		before := pair[0].Epoch()
		if err := pair[1].Leave(); err != nil {
			t.Fatalf("%s leave: %v", g, err)
		}
		deadline := time.Now().Add(15 * time.Second)
		for {
			if time.Now().After(deadline) {
				t.Fatalf("%s: no rekey after leave", g)
			}
			ev, err := pair[0].Next()
			if err != nil {
				t.Fatalf("%s: %v", g, err)
			}
			if ev.Kind == member.EventRekey {
				if ev.Epoch <= before {
					t.Fatalf("%s: epoch did not advance on leave (%d -> %d)", g, before, ev.Epoch)
				}
				break
			}
		}
		if err := pair[0].Leave(); err != nil {
			t.Fatalf("%s leave: %v", g, err)
		}
	}
	if err := m1.Leave(); err != nil {
		t.Fatal(err)
	}
}
