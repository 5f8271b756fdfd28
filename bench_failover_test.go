package enclaves

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"enclaves/internal/crypto"
	"enclaves/internal/faultnet"
	"enclaves/internal/group"
	"enclaves/internal/member"
	"enclaves/internal/metrics"
	"enclaves/internal/replica"
	"enclaves/internal/transport"
)

// BenchmarkFailover measures the full leader-failover pipeline at group
// sizes from 64 to 1024 members: the standby detecting the primary's death,
// the promotion itself, and the tail of the member resumption wave (every
// member re-attaching under its existing session key — no password
// re-handshake, no O(n) re-enrollment). One op is one complete failover:
// build the group, kill the primary, and clock until every member is back
// up on the promoted leader. Detection, promotion, and the p50/p99 resume
// latencies are reported as metrics and recorded in BENCH_failover.json.
//
// The sweep stops at 1024 where the data-plane sweep (BENCH_scale.json)
// goes to 4096: each op here must first bring up n ready-gated supervised
// sessions, and every join is still announced to every member. Keys that
// queue behind a member's unacknowledged AdminMsg fold into the newest, so
// the messages are fewer than n² under a storm, but each rotation is still
// an O(n) fan-out; at 4096 the bring-up took tens of minutes on the 1-vCPU
// reference host and dwarfed the failover under test.
func BenchmarkFailover(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("members=%d", n), func(b *testing.B) {
			benchFailover(b, n)
		})
	}
}

func benchFailover(b *testing.B, n int) {
	prevMetrics := metrics.Enabled()
	metrics.Enable()
	defer func() {
		if !prevMetrics {
			metrics.Disable()
		}
	}()

	names := userNames(n)
	keys := benchKeys(names...)

	// The member-side silence budget must absorb the join storm: the
	// watchdog also bounds the handshake, and while the leader interleaves
	// thousands of handshakes with rekey fan-outs a 600ms bound
	// trips on backlog alone. The budget is the dominant term of the
	// measured resume latency (every member waits it out before declaring
	// the primary dead), so it is recorded in the JSON entry.
	silence := 600 * time.Millisecond
	if n >= 1024 {
		silence = 2 * time.Second
	}

	var detection, promotion, p50, p99 time.Duration
	var resumes, fallbacks uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		kr, err := crypto.NewKey()
		if err != nil {
			b.Fatal(err)
		}
		// Eviction is disabled well past the bench horizon so the dead
		// primary cannot churn its registry. The heartbeat pace tracks the
		// silence budget: each probe is a sealed, acked frame, so a fixed
		// fast interval at four thousand members is tens of thousands of
		// AEAD ops per second — enough to saturate a small host before a
		// single handshake runs.
		liveness := group.Liveness{HeartbeatInterval: silence / 4, AckTimeout: time.Minute}
		primary, err := group.NewLeader(group.Config{
			Name: benchLeader, Users: keys, Rekey: group.DefaultRekeyPolicy(),
			ReplKey: kr, ReplPing: 25 * time.Millisecond,
			Liveness: liveness,
		})
		if err != nil {
			b.Fatal(err)
		}
		inner := transport.NewMemNetwork()
		primL, err := inner.Listen("primary")
		if err != nil {
			b.Fatal(err)
		}
		go primary.Serve(primL)

		// No injected faults — the fault network is here purely as the kill
		// switch: SeverAll blackholes every live link at once, so the primary
		// dies silently instead of sending FINs.
		fnet := faultnet.NewNetwork(inner.Dial, faultnet.Plan{})

		// Join the whole group with bounded concurrency, each session
		// draining its event stream; the drain timestamps every EventJoined,
		// which is how resume completion is observed without polling. Joins
		// that lose the storm-time race against their own watchdog redial
		// until the leader gets to them.
		type joinTimes struct {
			mu    sync.Mutex
			times []time.Time
		}
		sessions := make([]*member.Session, n)
		joined := make([]joinTimes, n)
		errs := make([]error, n)
		sem := make(chan struct{}, 64)
		var wg sync.WaitGroup
		for j, u := range names {
			wg.Add(1)
			go func(j int, u string) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				// The deadline starts once this member holds a join slot:
				// at the largest sizes the sem queue alone is minutes long.
				var s *member.Session
				deadline := time.Now().Add(3 * time.Minute)
				for {
					var err error
					s, err = member.NewSession(member.SessionConfig{
						User: u,
						Endpoints: []member.Endpoint{
							{Leader: benchLeader, LongTerm: keys[u], Dial: func() (transport.Conn, error) { return fnet.Dial("primary") }},
							{Leader: benchLeader, LongTerm: keys[u], Dial: func() (transport.Conn, error) { return inner.Dial("standby") }},
						},
						Backoff:        10 * time.Millisecond,
						ReadyTimeout:   30 * time.Second,
						SilenceTimeout: silence,
					})
					if err == nil {
						break
					}
					if time.Now().After(deadline) {
						errs[j] = err
						return
					}
					time.Sleep(50 * time.Millisecond)
				}
				sessions[j] = s
				go func() {
					for {
						ev, err := s.Next()
						if err != nil {
							return
						}
						if ev.Kind == member.EventJoined && ev.Name == u {
							joined[j].mu.Lock()
							joined[j].times = append(joined[j].times, time.Now())
							joined[j].mu.Unlock()
						}
					}
				}()
			}(j, u)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
		waitBench(b, "group converges on the primary", func() bool {
			e := primary.Epoch()
			for _, s := range sessions {
				if !s.Up() || s.Epoch() != e {
					return false
				}
			}
			return len(primary.Members()) == n
		})
		// The standby subscribes once the group is converged: a join storm of
		// thousands saturates the scheduler enough to starve a tight silence
		// budget, and the benchmark measures the failover, not bring-up. The
		// fresh snapshot carries the whole group in one frame.
		sb, err := replica.NewStandby(replica.StandbyConfig{
			Standby: "standby", Primary: benchLeader, Key: kr,
			Dial:    func() (transport.Conn, error) { return fnet.Dial("primary") },
			Silence: 250 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		waitBench(b, "standby replicated the group", func() bool {
			return sb.Synced() && len(sb.State().Members) == n && sb.State().Epoch == primary.Epoch()
		})
		time.Sleep(100 * time.Millisecond) // let in-flight SessionSync nonces land
		resumesBefore := counterValue(b, "group_resumes_total")

		b.StartTimer()
		killed := time.Now()
		primL.Close()
		fnet.SeverAll()

		<-sb.Dead()
		detection = time.Since(killed)
		promoStart := time.Now()
		st := sb.State()
		sb.Stop()
		promoted, err := group.Promote(group.Config{
			Users: keys, Rekey: group.DefaultRekeyPolicy(),
			Liveness: liveness,
		}, st)
		if err != nil {
			b.Fatal(err)
		}
		sbL, err := inner.Listen("standby")
		if err != nil {
			b.Fatal(err)
		}
		go promoted.Serve(sbL)
		promotion = time.Since(promoStart)

		// The resume wave: every member's next EventJoined after the kill
		// marks its re-attach to the promoted leader.
		reattach := make([]time.Duration, n)
		waitBench(b, "all members re-attach", func() bool {
			for j := range joined {
				joined[j].mu.Lock()
				ok := false
				for _, at := range joined[j].times {
					if at.After(killed) {
						reattach[j] = at.Sub(killed)
						ok = true
						break
					}
				}
				joined[j].mu.Unlock()
				if !ok {
					return false
				}
			}
			return true
		})
		b.StopTimer()

		resumes = counterValue(b, "group_resumes_total") - resumesBefore
		// A fallback is a member that needed the full password re-handshake.
		// member_resume_fallback_total is no measure of that: every member
		// bumps it once when its first resume attempt hits the dead primary.
		fallbacks = uint64(n) - min(resumes, uint64(n))
		sort.Slice(reattach, func(a, c int) bool { return reattach[a] < reattach[c] })
		p50, p99 = reattach[n/2], reattach[(n*99)/100]

		for _, s := range sessions {
			wg.Add(1)
			go func(s *member.Session) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				s.Close()
			}(s)
		}
		wg.Wait()
		promoted.Close()
		primary.Close()
		inner.Close()
	}

	b.ReportMetric(float64(detection.Microseconds())/1000, "detect-ms")
	b.ReportMetric(float64(promotion.Microseconds())/1000, "promote-ms")
	b.ReportMetric(float64(p99.Microseconds())/1000, "resume-p99-ms")
	b.ReportMetric(float64(resumes), "resumed")
	recordBench(b, "BENCH_failover.json", "failover_sweep", map[string]any{
		"members":       n,
		"silence_ms":    float64(silence.Microseconds()) / 1000,
		"detect_ms":     float64(detection.Microseconds()) / 1000,
		"promote_ms":    float64(promotion.Microseconds()) / 1000,
		"resume_p50_ms": float64(p50.Microseconds()) / 1000,
		"resume_p99_ms": float64(p99.Microseconds()) / 1000,
		"resumed":       resumes,
		"fallbacks":     fallbacks,
	}, "members")
}

// waitBench blocks until cond holds, failing the benchmark after a generous
// deadline (testing.B has no waitUntil counterpart in this package: that
// helper insists on *testing.T).
func waitBench(b *testing.B, what string, cond func() bool) {
	b.Helper()
	deadline := time.Now().Add(5 * time.Minute)
	for !cond() {
		if time.Now().After(deadline) {
			b.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
