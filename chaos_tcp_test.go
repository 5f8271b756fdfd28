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

// chunkedConn is the byte layer's fault policy: a net.Conn that writes and
// reads in tiny randomly-sized chunks with seeded random pauses. Where
// internal/faultnet perturbs whole envelopes, this perturbs the stream itself
// — every length prefix, mux header, and AEAD body gets split across
// arbitrary read and write boundaries — so it exercises exactly the
// partial-read/partial-write handling of the one TCP framing, the
// group-multiplexing layer, that a switch under pressure would. Being a
// net.Conn it goes wherever one does (transport.NewNetConn, NewMuxClient),
// and the frame-level policy stacks on top:
// faultnet.Wrap(transport.NewNetConn(chunked(c, seed)), plan).
type chunkedConn struct {
	net.Conn
	// One PRNG per direction, derived from the seed, so a failing seed
	// replays the same chunking. The mux serializes writers behind its write
	// lock and reads from one loop; the mutexes only make that explicit.
	wmu, rmu   sync.Mutex
	wrng, rrng *rand.Rand
}

func chunked(c net.Conn, seed int64) net.Conn {
	return &chunkedConn{
		Conn: c,
		wrng: rand.New(rand.NewSource(seed)),
		rrng: rand.New(rand.NewSource(seed ^ 0x5DEECE66D)),
	}
}

// chunk draws the next chunk size, 1..16 bytes capped at max, pausing a
// little before a quarter of the chunks.
func chunk(rng *rand.Rand, max int) int {
	k := 1 + rng.Intn(16)
	if k > max {
		k = max
	}
	if rng.Intn(4) == 0 {
		time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
	}
	return k
}

// Write forwards p in chunks: partial writes, as the peer sees them.
func (c *chunkedConn) Write(p []byte) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	for off := 0; off < len(p); {
		k := chunk(c.wrng, len(p)-off)
		n, err := c.Conn.Write(p[off : off+k])
		off += n
		if err != nil {
			return off, err
		}
	}
	return len(p), nil
}

// Read returns at most one chunk: short, delayed reads.
func (c *chunkedConn) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	c.rmu.Lock()
	k := chunk(c.rrng, len(p))
	c.rmu.Unlock()
	return c.Conn.Read(p[:k])
}

// dialChunkedMux opens a client socket to addr whose byte stream is chunked
// in both directions.
func dialChunkedMux(t *testing.T, addr string, seed int64) *transport.Mux {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	m := transport.NewMuxClient(chunked(nc, seed), transport.MuxConfig{})
	t.Cleanup(func() { m.Close() })
	return m
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
// through byte-chunking sockets. Correctness bar: every handshake completes,
// every multicast arrives intact and in order, and departures still trigger
// the on-leave rekey, no matter how the stream is sliced.
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

	// Two chunked client sockets, so every group's traffic crosses mangled
	// streams in both directions.
	muxB := dialChunkedMux(t, nl.Addr().String(), seed)
	muxC := dialChunkedMux(t, nl.Addr().String(), seed+1)

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
