// Command enclaveload is the load generator for the multi-tenant daemon: it
// drives G groups x M members of join/traffic/leave churn through real TCP
// sockets against an enclaved directory and emits a JSON benchmark report
// (BENCH_load.json) of connection count, message throughput, one-way latency
// quantiles, rekey rate, goroutine peak, and resident set size.
//
// Usage:
//
//	enclaveload -addr 127.0.0.1:7465 -groups 64 -members 4 -conns 256
//	            [-rate 1] [-payload 128] [-duration 30s] [-churn 0]
//	            [-join-burst 256] [-password bench] [-server-pid 0]
//	            [-out BENCH_load.json]
//
// With -addr empty the generator self-hosts an in-process group.Directory on
// a loopback listener and drives that — the sockets are still real TCP, and
// the reported RSS then covers daemon and generator together. Against an
// external daemon, start enclaved with -groups >= the generator's -groups and
// a users file granting m0..m(M-1); pass the daemon's pid as -server-pid to
// include its RSS in the report.
//
// The generator opens -conns multiplexed TCP connections and spreads the G*M
// member sessions across them round-robin, so -conns >= G*M gives every
// session a dedicated socket. Each member joins its group (per-group derived
// key, as enclaved derives them), multicasts -payload byte messages at -rate
// per second with an embedded send timestamp, and verifies on every rekey
// event that its group's epoch never regresses — the per-group isolation
// invariant, checked continuously under churn. With -churn > 0 the last
// member of every group additionally cycles leave/rejoin at that period,
// driving rekeys at a steady rate.
//
// The process exits non-zero if any session errored or any epoch regressed,
// so a CI smoke run is just: run it, check the exit code.
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"enclaves/internal/crypto"
	"enclaves/internal/group"
	"enclaves/internal/member"
	"enclaves/internal/metrics"
	"enclaves/internal/transport"
)

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "enclaveload:", err)
		os.Exit(2)
	}
	cfg.Logf = log.Printf
	rep, err := runLoad(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "enclaveload:", err)
		os.Exit(1)
	}
	if cfg.Out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(cfg.Out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "enclaveload: write report:", err)
			os.Exit(1)
		}
	}
	log.Printf("enclaveload: %d conns, %d sessions: %.0f msg/s out, %.0f msg/s in, p99 %.2fms, %.1f rekeys/s, %d errors, %d epoch regressions",
		rep.Connections, rep.Sessions, rep.SentPerSec, rep.RecvPerSec, rep.LatencyP99Ms, rep.RekeysPerSec, rep.Errors, rep.EpochRegressions)
	if rep.Errors > 0 || rep.EpochRegressions > 0 {
		os.Exit(1)
	}
}

// loadConfig is the generator's shape; runLoad is pure in it so tests drive
// the whole machine in-process.
type loadConfig struct {
	Addr      string        // daemon address; empty self-hosts a Directory
	Groups    int           // G: groups g0..g(G-1)
	Members   int           // M: members m0..m(M-1) per group
	Conns     int           // TCP connections to spread sessions across
	Rate      float64       // multicasts per second per member (0 = none)
	Payload   int           // multicast payload size (>= 8, for the timestamp)
	Duration  time.Duration // measured traffic window
	Churn     time.Duration // last member of each group leaves/rejoins at this period (0 = off)
	JoinBurst int           // concurrent joins during ramp
	Password  string        // every user's password (keys derive per group)
	ServerPID int           // external daemon pid for RSS reporting (0 = none)
	Out       string        // report path ("" = stdout summary only)
	Logf      func(string, ...any)
}

func parseFlags(args []string) (loadConfig, error) {
	fs := flag.NewFlagSet("enclaveload", flag.ContinueOnError)
	var cfg loadConfig
	fs.StringVar(&cfg.Addr, "addr", "", "daemon address (empty: self-host an in-process directory)")
	fs.IntVar(&cfg.Groups, "groups", 64, "number of groups")
	fs.IntVar(&cfg.Members, "members", 4, "members per group")
	fs.IntVar(&cfg.Conns, "conns", 256, "TCP connections to multiplex sessions over")
	fs.Float64Var(&cfg.Rate, "rate", 1, "multicasts per second per member")
	fs.IntVar(&cfg.Payload, "payload", 128, "multicast payload bytes (min 8)")
	fs.DurationVar(&cfg.Duration, "duration", 30*time.Second, "measured traffic window")
	fs.DurationVar(&cfg.Churn, "churn", 0, "leave/rejoin period of each group's last member (0 disables)")
	fs.IntVar(&cfg.JoinBurst, "join-burst", 256, "concurrent joins during ramp")
	fs.StringVar(&cfg.Password, "password", "bench", "password shared by all generated users")
	fs.IntVar(&cfg.ServerPID, "server-pid", 0, "external daemon pid; includes its RSS in the report")
	fs.StringVar(&cfg.Out, "out", "BENCH_load.json", "report output path")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	return cfg, cfg.validate()
}

func (c *loadConfig) validate() error {
	switch {
	case c.Groups < 1:
		return fmt.Errorf("-groups must be >= 1")
	case c.Members < 1:
		return fmt.Errorf("-members must be >= 1")
	case c.Conns < 1:
		return fmt.Errorf("-conns must be >= 1")
	case c.Rate < 0:
		return fmt.Errorf("-rate must be >= 0")
	case c.Duration <= 0:
		return fmt.Errorf("-duration must be > 0")
	case c.Churn < 0:
		return fmt.Errorf("-churn must be >= 0")
	case c.JoinBurst < 1:
		return fmt.Errorf("-join-burst must be >= 1")
	}
	if c.Payload < 8 {
		c.Payload = 8 // room for the embedded send timestamp
	}
	return nil
}

// loadReport is the benchmark artifact, serialized to BENCH_load.json.
type loadReport struct {
	Groups          int     `json:"groups"`
	MembersPerGroup int     `json:"members_per_group"`
	Connections     int     `json:"connections"`
	Sessions        int     `json:"sessions"`
	RateHz          float64 `json:"rate_per_member_hz"`
	PayloadBytes    int     `json:"payload_bytes"`
	RampSec         float64 `json:"ramp_sec"`
	WindowSec       float64 `json:"window_sec"`

	Joins        uint64  `json:"joins_total"`
	MsgsSent     uint64  `json:"msgs_sent_window"`
	MsgsRecv     uint64  `json:"msgs_recv_window"`
	SentPerSec   float64 `json:"msgs_sent_per_sec"`
	RecvPerSec   float64 `json:"msgs_recv_per_sec"`
	Rekeys       uint64  `json:"rekeys_window"`
	RekeysPerSec float64 `json:"rekeys_per_sec"`

	LatencySamples uint64  `json:"latency_samples"`
	LatencyP50Ms   float64 `json:"latency_p50_ms"`
	LatencyP90Ms   float64 `json:"latency_p90_ms"`
	LatencyP99Ms   float64 `json:"latency_p99_ms"`
	LatencyP999Ms  float64 `json:"latency_p999_ms"`
	LatencyMaxMs   float64 `json:"latency_max_ms"`

	Errors           uint64   `json:"errors"`
	ErrorSamples     []string `json:"error_samples,omitempty"`
	EpochRegressions uint64   `json:"epoch_regressions"`
	GoroutinesPeak   int      `json:"goroutines_peak"`
	RSSMB            float64  `json:"rss_mb"`
	ServerRSSMB      float64  `json:"server_rss_mb,omitempty"`
}

// loader is one run's shared state.
type loader struct {
	cfg   loadConfig
	stats loadStats
	sem   chan struct{} // join throttle: at most JoinBurst handshakes in flight
	start chan struct{} // closed when the measured window opens
	stop  chan struct{} // closed when the window ends; workers drain
}

const joinTimeout = 60 * time.Second

func runLoad(cfg loadConfig) (*loadReport, error) {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	raiseNoFile(logf)

	addr := cfg.Addr
	if addr == "" {
		dir, nl, err := selfHost(cfg)
		if err != nil {
			return nil, err
		}
		defer func() {
			nl.Close()
			dir.Close()
		}()
		addr = nl.Addr().String()
		logf("enclaveload: self-hosting directory on %s", addr)
	}

	// Connection pool: every socket is a real TCP connection carrying mux
	// frames; sessions spread round-robin so -conns >= sessions gives each
	// its own socket.
	muxes := make([]*transport.Mux, cfg.Conns)
	for i := range muxes {
		m, err := transport.DialMux(addr, transport.MuxConfig{})
		if err != nil {
			for _, c := range muxes[:i] {
				c.Close()
			}
			return nil, fmt.Errorf("dial conn %d/%d: %w", i, cfg.Conns, err)
		}
		muxes[i] = m
	}
	defer func() {
		for _, m := range muxes {
			m.Close()
		}
	}()
	logf("enclaveload: %d connections established", cfg.Conns)

	l := &loader{
		cfg:   cfg,
		sem:   make(chan struct{}, cfg.JoinBurst),
		start: make(chan struct{}),
		stop:  make(chan struct{}),
	}

	// Goroutine-peak sampler, alive until drain finishes.
	samplerDone := make(chan struct{})
	var peak atomic.Int64
	go func() {
		t := time.NewTicker(200 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-samplerDone:
				return
			case <-t.C:
				if n := int64(runtime.NumGoroutine()); n > peak.Load() {
					peak.Store(n)
				}
			}
		}
	}()
	defer close(samplerDone)

	// Ramp: join every session, join-burst at a time. Join failures are
	// counted inside session(); ready only reports each worker's initial
	// join outcome so the ramp can be timed and tallied.
	sessions := cfg.Groups * cfg.Members
	ready := make(chan error, sessions)
	var wg sync.WaitGroup
	rampT0 := time.Now()
	gids := make([]string, cfg.Groups)
	for g := range gids {
		gids[g] = fmt.Sprintf("g%d", g)
	}
	keys := crypto.DeriveKeys(cfg.passwords(), gids...)
	for g, gid := range gids {
		for m := 0; m < cfg.Members; m++ {
			wg.Add(1)
			go func(m int, mx *transport.Mux) {
				defer wg.Done()
				l.runWorker(gid, m, keys[gid][fmt.Sprintf("m%d", m)], mx, ready)
			}(m, muxes[(g*cfg.Members+m)%cfg.Conns])
		}
	}
	joined := 0
	for i := 0; i < sessions; i++ {
		if err := <-ready; err == nil {
			joined++
		}
	}
	rampSec := time.Since(rampT0).Seconds()
	if joined == 0 {
		close(l.stop)
		wg.Wait()
		return nil, fmt.Errorf("no session joined; first error: %s", l.stats.firstSample())
	}
	logf("enclaveload: ramp complete: %d/%d sessions joined in %.1fs", joined, sessions, rampSec)

	// Measured window.
	l.stats.measuring.Store(true)
	sent0, recv0, rekeys0 := l.stats.sent.Load(), l.stats.recv.Load(), l.stats.rekeys.Load()
	t0 := time.Now()
	close(l.start)
	time.Sleep(cfg.Duration)
	window := time.Since(t0).Seconds()
	sent1, recv1, rekeys1 := l.stats.sent.Load(), l.stats.recv.Load(), l.stats.rekeys.Load()
	l.stats.measuring.Store(false)
	rssMB := readRSS(0)
	var serverRSS float64
	if cfg.ServerPID > 0 {
		serverRSS = readRSS(cfg.ServerPID)
	}

	// Drain: teardown noise past this point is not an error.
	l.stats.stopped.Store(true)
	close(l.stop)
	drained := make(chan struct{})
	go func() {
		wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(60 * time.Second):
		return nil, fmt.Errorf("workers did not drain within 60s (%d goroutines)", runtime.NumGoroutine())
	}

	h := &l.stats.lat
	rep := &loadReport{
		Groups:          cfg.Groups,
		MembersPerGroup: cfg.Members,
		Connections:     cfg.Conns,
		Sessions:        joined,
		RateHz:          cfg.Rate,
		PayloadBytes:    cfg.Payload,
		RampSec:         round2(rampSec),
		WindowSec:       round2(window),

		Joins:        l.stats.joins.Load(),
		MsgsSent:     sent1 - sent0,
		MsgsRecv:     recv1 - recv0,
		SentPerSec:   round2(float64(sent1-sent0) / window),
		RecvPerSec:   round2(float64(recv1-recv0) / window),
		Rekeys:       rekeys1 - rekeys0,
		RekeysPerSec: round2(float64(rekeys1-rekeys0) / window),

		LatencySamples: h.Count(),
		LatencyP50Ms:   durMs(h.Quantile(0.50)),
		LatencyP90Ms:   durMs(h.Quantile(0.90)),
		LatencyP99Ms:   durMs(h.Quantile(0.99)),
		LatencyP999Ms:  durMs(h.Quantile(0.999)),
		LatencyMaxMs:   durMs(h.Max()),

		Errors:           l.stats.errors.Load(),
		ErrorSamples:     l.stats.sampleList(),
		EpochRegressions: l.stats.epochRegressions.Load(),
		GoroutinesPeak:   int(peak.Load()),
		RSSMB:            round2(rssMB),
		ServerRSSMB:      round2(serverRSS),
	}
	return rep, nil
}

// selfHost starts an in-process Directory on a loopback listener, authorizing
// users m0..m(M-1) in every group with the same per-group derivation enclaved
// uses.
func selfHost(cfg loadConfig) (*group.Directory, net.Listener, error) {
	passwords := cfg.passwords()
	dir, err := group.NewDirectory(group.DirectoryConfig{
		NewConfig: func(g string) (group.Config, error) {
			users := crypto.DeriveKeys(passwords, g)[g]
			return group.Config{Name: g, Tenant: g, Users: users, Rekey: group.DefaultRekeyPolicy()}, nil
		},
		MaxDynamic: -1,
	})
	if err != nil {
		return nil, nil, err
	}
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		dir.Close()
		return nil, nil, err
	}
	go dir.Serve(nl)
	return dir, nl, nil
}

// passwords gives users m0..m(M-1) the load password.
func (c loadConfig) passwords() map[string]string {
	p := make(map[string]string, c.Members)
	for m := 0; m < c.Members; m++ {
		p[fmt.Sprintf("m%d", m)] = c.Password
	}
	return p
}

// runWorker is one member's whole lifetime: join (reporting the initial
// join outcome on ready), produce and consume traffic, and — if this is the
// group's churn slot — cycle leave/rejoin until stop. Every failure is
// counted exactly once, inside session().
func (l *loader) runWorker(gid string, m int, key crypto.Key, mx *transport.Mux, ready chan<- error) {
	user := fmt.Sprintf("m%d", m)
	churner := l.cfg.Churn > 0 && l.cfg.Members > 1 && m == l.cfg.Members-1

	// lastEpoch carries the high-water epoch across this worker's sessions:
	// a rejoin after churn must land at or past where the group already was.
	var lastEpoch atomic.Uint64
	readyCh := ready
	for {
		sessionEnd := time.Duration(0)
		if churner {
			sessionEnd = l.cfg.Churn
		}
		l.session(gid, user, key, mx, &lastEpoch, sessionEnd, readyCh)
		readyCh = nil
		select {
		case <-l.stop:
			return
		default:
		}
		if !churner {
			// A non-churning session only ends on stop or on an (already
			// counted) error; either way this worker is done.
			return
		}
		// Churn pause between leave and rejoin.
		select {
		case <-l.stop:
			return
		case <-time.After(l.cfg.Churn / 4):
		}
	}
}

// session runs one join..leave lifetime. sessionEnd > 0 bounds it (churn);
// otherwise it lasts until stop. The join handshake is throttled by the
// shared semaphore, released as soon as the member is ready; ready (when
// non-nil) receives the join outcome.
func (l *loader) session(gid, user string, key crypto.Key, mx *transport.Mux, lastEpoch *atomic.Uint64, sessionEnd time.Duration, ready chan<- error) {
	joinErr := func(err error) {
		l.stats.fail("%s/%s: %v", gid, user, err)
		if ready != nil {
			ready <- err
		}
	}
	l.sem <- struct{}{}
	c, err := mx.Open(gid)
	if err != nil {
		<-l.sem
		joinErr(fmt.Errorf("open: %w", err))
		return
	}
	mb, err := member.JoinOpts(c, user, gid, key, member.Options{})
	if err != nil {
		c.Close()
		<-l.sem
		joinErr(fmt.Errorf("join: %w", err))
		return
	}
	if err := mb.WaitReady(joinTimeout); err != nil {
		mb.Leave()
		<-l.sem
		joinErr(fmt.Errorf("ready: %w", err))
		return
	}
	<-l.sem
	l.stats.joins.Add(1)
	if ready != nil {
		ready <- nil
	}
	// The live Epoch() snapshot can run ahead of EventRekey events still
	// queued for delivery, so it must never advance the watermark — it only
	// checks that a rejoin does not land on an epoch older than one this
	// worker already saw rekeyed. The watermark itself advances exclusively
	// on EventRekey, which arrives in broadcast order.
	if e := mb.Epoch(); e < lastEpoch.Load() {
		l.stats.epochRegressions.Add(1)
		l.stats.fail("%s/%s: rejoin epoch regressed %d -> %d", gid, user, lastEpoch.Load(), e)
	}

	// Consumer: count data, sample latency, watch epochs.
	var leaving atomic.Bool
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		for {
			ev, err := mb.Next()
			if err != nil {
				if !leaving.Load() {
					l.stats.fail("%s/%s: recv: %v", gid, user, err)
				}
				return
			}
			switch ev.Kind {
			case member.EventRekey:
				l.stats.rekeys.Add(1)
				observeEpoch(&l.stats, lastEpoch, ev.Epoch, gid, user)
			case member.EventData:
				l.stats.recv.Add(1)
				if l.stats.measuring.Load() && len(ev.Data) >= 8 {
					sentAt := int64(binary.BigEndian.Uint64(ev.Data))
					if d := time.Now().UnixNano() - sentAt; d >= 0 {
						l.stats.lat.Record(time.Duration(d))
					}
				}
			}
		}
	}()

	if err := l.produce(mb, sessionEnd); err != nil {
		l.stats.fail("%s/%s: %v", gid, user, err)
	}

	leaving.Store(true)
	mb.Leave()
	<-consumerDone
}

// produce multicasts at the configured rate once the measured window opens,
// until stop or (for churn sessions) the session deadline.
func (l *loader) produce(mb *member.Member, sessionEnd time.Duration) error {
	var deadline <-chan time.Time
	if sessionEnd > 0 {
		t := time.NewTimer(sessionEnd)
		defer t.Stop()
		deadline = t.C
	}
	select {
	case <-l.stop:
		return nil
	case <-deadline:
		return nil
	case <-l.start:
	}
	if l.cfg.Rate <= 0 {
		select {
		case <-l.stop:
		case <-deadline:
		}
		return nil
	}
	tick := time.NewTicker(time.Duration(float64(time.Second) / l.cfg.Rate))
	defer tick.Stop()
	payload := make([]byte, l.cfg.Payload)
	for {
		select {
		case <-l.stop:
			return nil
		case <-deadline:
			return nil
		case <-tick.C:
			binary.BigEndian.PutUint64(payload, uint64(time.Now().UnixNano()))
			if err := mb.SendData(payload); err != nil {
				if l.stats.stopped.Load() {
					return nil
				}
				return fmt.Errorf("send: %w", err)
			}
			l.stats.sent.Add(1)
		}
	}
}

// observeEpoch advances the worker's epoch high-water mark from an
// EventRekey, flagging any regression — the continuously-checked per-group
// monotonicity invariant. Only rekey events feed it: they are delivered in
// broadcast order, so the mark is comparable across a churner's sessions.
// Equal epochs are tolerated (a rejoin's first rekey can replay the value
// the previous session left on).
func observeEpoch(s *loadStats, last *atomic.Uint64, epoch uint64, gid, user string) {
	for {
		old := last.Load()
		if epoch > old {
			if last.CompareAndSwap(old, epoch) {
				return
			}
			continue
		}
		if epoch < old {
			s.epochRegressions.Add(1)
			s.fail("%s/%s: epoch regressed %d -> %d", gid, user, old, epoch)
		}
		return
	}
}

// loadStats aggregates across all workers; everything is atomic because ten
// thousand goroutines hammer it.
type loadStats struct {
	joins, sent, recv, rekeys atomic.Uint64
	errors, epochRegressions  atomic.Uint64
	lat                       metrics.Histogram
	measuring                 atomic.Bool // inside the measured window
	stopped                   atomic.Bool // teardown begun; failures are noise

	mu      sync.Mutex
	samples []string
}

func (s *loadStats) fail(format string, args ...any) {
	if s.stopped.Load() {
		return
	}
	s.errors.Add(1)
	s.mu.Lock()
	if len(s.samples) < 8 {
		s.samples = append(s.samples, fmt.Sprintf(format, args...))
	}
	s.mu.Unlock()
}

func (s *loadStats) sampleList() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.samples))
	copy(out, s.samples)
	return out
}

func (s *loadStats) firstSample() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return "(none recorded)"
	}
	return s.samples[0]
}

// raiseNoFile lifts RLIMIT_NOFILE to its hard cap so tens of thousands of
// sockets fit; best-effort.
func raiseNoFile(logf func(string, ...any)) {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil || lim.Cur >= lim.Max {
		return
	}
	lim.Cur = lim.Max
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim); err == nil {
		logf("enclaveload: raised RLIMIT_NOFILE to %d", lim.Cur)
	}
}

// readRSS reads VmRSS of pid (0 = self) from /proc in MiB.
func readRSS(pid int) float64 {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

func durMs(d time.Duration) float64 { return round2(float64(d) / 1e6) }

func round2(f float64) float64 { return float64(int64(f*100+0.5)) / 100 }
