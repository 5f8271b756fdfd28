package member

import (
	"errors"
	"sync"
	"testing"
	"time"

	"enclaves/internal/crypto"
	"enclaves/internal/faultnet"
	"enclaves/internal/group"
	"enclaves/internal/transport"
)

// endNet is how the members of an end test reach their leader: dial opens
// one member connection, closeMux is the client's local Mux.Close (nil
// without a mux), and stop stops the daemon: its listener, then its leader.
type endNet struct {
	dial     func() (transport.Conn, error)
	closeMux func()
	stop     func()
}

// endNets serve a leader over each kind of connection a member runs on.
var endNets = []struct {
	name  string
	serve func(t *testing.T, g *group.Leader) endNet
}{
	{"pipe", func(t *testing.T, g *group.Leader) endNet {
		net := transport.NewMemNetwork()
		l, err := net.Listen("leader")
		if err != nil {
			t.Fatal(err)
		}
		go g.Serve(l)
		return endNet{
			dial: func() (transport.Conn, error) { return net.Dial("leader") },
			stop: func() { l.Close(); g.Close() },
		}
	}},
	{"mux", func(t *testing.T, g *group.Leader) endNet {
		l, mx := muxDaemon(t, g)
		return endNet{
			dial:     func() (transport.Conn, error) { return mx.Open("") },
			closeMux: func() { mx.Close() },
			stop:     func() { l.Close(); g.Close() },
		}
	}},
	{"faultnet", func(t *testing.T, g *group.Leader) endNet {
		l, mx := muxDaemon(t, g)
		return endNet{
			dial: func() (transport.Conn, error) {
				c, err := mx.Open("")
				if err != nil {
					return nil, err
				}
				return faultnet.Wrap(c, faultnet.Plan{Seed: 1}), nil
			},
			closeMux: func() { mx.Close() },
			stop:     func() { l.Close(); g.Close() },
		}
	}},
}

// muxDaemon serves g on a loopback socket and dials one client mux to it,
// which every member of the test shares.
func muxDaemon(t *testing.T, g *group.Leader) (transport.Listener, *transport.Mux) {
	t.Helper()
	l, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go g.Serve(l)
	mx, err := transport.DialMux(l.Addr(), transport.MuxConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mx.Close() })
	return l, mx
}

// TestMemberEnds pins the member's one close-out over every connection kind:
// whichever way the session ends — Leave, the silence timer, the peer
// closing the stream, or the client closing its whole mux before or after
// the daemon stops — it queues exactly one EventClosed, with that end's
// cause, as the last event, while bob's multicasts keep arriving; Next then
// reports ErrLeft and Leave returns.
func TestMemberEnds(t *testing.T) {
	ends := []struct {
		name    string
		mux     bool          // needs a client mux
		silence time.Duration // alice's SilenceTimeout
		end     func(n endNet, g *group.Leader, alice *Member, quiet func())
		want    error
	}{
		{"leave", false, 0, func(_ endNet, _ *group.Leader, alice *Member, _ func()) {
			if err := alice.Leave(); err != nil {
				t.Errorf("leave: %v", err)
			}
		}, nil},
		{"silence", false, 150 * time.Millisecond, func(_ endNet, _ *group.Leader, _ *Member, quiet func()) { quiet() }, ErrLeaderSilent},
		{"peer close", false, 0, func(_ endNet, g *group.Leader, _ *Member, _ func()) { g.Expel("alice") }, transport.ErrClosed},
		{"mux close after daemon stop", true, 0, func(n endNet, _ *group.Leader, _ *Member, _ func()) {
			n.stop()
			n.closeMux()
		}, transport.ErrClosed},
		{"mux close before daemon stop", true, 0, func(n endNet, _ *group.Leader, _ *Member, _ func()) {
			n.closeMux()
			n.stop()
		}, transport.ErrClosed},
	}
	for _, en := range endNets {
		for _, e := range ends {
			if e.mux && en.name == "pipe" {
				continue
			}
			t.Run(en.name+"/"+e.name, func(t *testing.T) {
				keys := map[string]crypto.Key{}
				for _, u := range []string{"alice", "bob"} {
					keys[u] = crypto.DeriveKey(u, "leader", u+"-pw")
				}
				g, err := group.NewLeader(group.Config{Name: "leader", Users: keys, Rekey: group.DefaultRekeyPolicy()})
				if err != nil {
					t.Fatal(err)
				}
				n := en.serve(t, g)
				t.Cleanup(n.stop)
				join := func(u string, silence time.Duration) *Member {
					c, err := n.dial()
					if err != nil {
						t.Fatal(err)
					}
					m, err := JoinOpts(c, u, "leader", keys[u], Options{SilenceTimeout: silence})
					if err != nil {
						t.Fatal(err)
					}
					if err := m.WaitReady(5 * time.Second); err != nil {
						t.Fatal(err)
					}
					return m
				}
				alice := join("alice", e.silence)
				bob := join("bob", 0)
				defer bob.Leave()

				got := make(chan []Event, 1)
				data := make(chan struct{})
				go func() {
					var evs []Event
					var once sync.Once
					for {
						ev, err := alice.Next()
						if err != nil {
							got <- evs
							return
						}
						if ev.Kind == EventData {
							once.Do(func() { close(data) })
						}
						evs = append(evs, ev)
					}
				}()
				stop := make(chan struct{})
				chatted := make(chan struct{})
				go func() {
					defer close(chatted)
					for {
						select {
						case <-stop:
							return
						case <-time.After(time.Millisecond):
						}
						bob.SendData([]byte("chatter"))
					}
				}()
				var quietOnce sync.Once
				quiet := func() {
					quietOnce.Do(func() { close(stop) })
					<-chatted
				}
				defer quiet()
				select {
				case <-data:
				case <-time.After(5 * time.Second):
					t.Fatal("no multicast reached alice")
				}

				e.end(n, g, alice, quiet)
				var evs []Event
				select {
				case evs = <-got:
				case <-time.After(10 * time.Second):
					t.Fatal("alice's event stream never ended")
				}
				closed := 0
				for _, ev := range evs {
					if ev.Kind == EventClosed {
						closed++
					}
				}
				last := evs[len(evs)-1]
				switch {
				case closed != 1:
					t.Errorf("%d EventClosed, want 1", closed)
				case last.Kind != EventClosed:
					t.Errorf("last event %v, want EventClosed", last)
				case !errors.Is(last.Err, e.want):
					t.Errorf("EventClosed.Err = %v, want %v", last.Err, e.want)
				}
				if _, err := alice.Next(); !errors.Is(err, ErrLeft) {
					t.Errorf("Next after the end: %v, want ErrLeft", err)
				}
				left := make(chan error, 1)
				go func() { left <- alice.Leave() }()
				select {
				case err := <-left:
					if e.want == nil && !errors.Is(err, ErrLeft) {
						t.Errorf("second Leave: %v, want ErrLeft", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("Leave after the end never returned")
				}
			})
		}
	}
}
