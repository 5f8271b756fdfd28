// Command enclaved runs an Enclaves group leader over TCP, speaking the
// improved intrusion-tolerant protocol of the DSN'01 paper.
//
// Usage:
//
//	enclaved -addr 127.0.0.1:7465 -name leader -users users.txt [-rekey join,leave]
//	         [-rekey-coalesce 5ms] [-heartbeat 2s] [-ack-timeout 10s]
//	         [-outbox 1024] [-metrics-addr 127.0.0.1:9465]
//	         [-repl-secret repl.secret]
//	enclaved -standby -replicate-from 127.0.0.1:7465 -repl-secret repl.secret
//	         -addr 127.0.0.1:7466 -name leader -users users.txt [...]
//
// The users file holds one "name:password" pair per line; lines starting
// with # are ignored. Passwords are the long-term secrets from which the
// per-user keys P_a are derived; in a real deployment distribute them out
// of band.
//
// -heartbeat and -ack-timeout arm the liveness layer: idle members are
// probed with authenticated heartbeats, and a member that leaves an admin
// message unacknowledged past the ack timeout is expelled exactly like a
// leave (on-leave rekey, audit event), closing the forward-secrecy hole a
// silently dead member would otherwise keep open. -outbox bounds each
// member's outbound queue; a consumer slow enough to overflow it is
// likewise expelled. Zero disables the respective mechanism.
//
// -rekey-coalesce tunes the leader for large groups: it folds a burst of
// join/leave-triggered key rotations into one epoch bump per window
// (expulsions and explicit rekeys stay immediate; departed members still
// never receive a post-departure key).
//
// -repl-secret names a file holding one shared secret line; it derives the
// replication key K_r that seals the leader-replication channel. On a
// primary it enables replication: a standby may subscribe and mirror
// membership, epochs, group keys, and audit positions. With -standby the
// process runs as that hot standby instead: it replicates from the primary
// at -replicate-from until the stream has been silent past -repl-silence,
// then promotes the replica — same leader identity (-name) and users file,
// one forced key rotation — and serves members on -addr. Members arriving
// with live session state resume without a password re-handshake; the rest
// re-join normally.
//
// -groups, -max-groups, and -group-ttl switch the daemon into multi-tenant
// mode: one process hosts many independent groups — each with its own
// users, keys, epochs, rekeyer, and audit stream — behind the one listener.
// -groups N precreates groups g0..g(N-1) alongside the default group
// (-name, where unlabeled streams land); -max-groups caps groups
// created on demand by the first connection naming them (0 forbids dynamic
// creation, negative is unlimited); -group-ttl garbage-collects dynamic
// groups idle past the window. Every group derives its member keys with the
// group ID as the leader identity, so the same username in two groups holds
// unrelated keys — cross-tenant key bleed is impossible by construction.
// Clients multiplex many group sessions over one TCP connection (the mux
// framing in internal/wire); a single-session client (cmd/enclave) is the
// one-stream case and lands in the default group. Multi-tenant mode excludes
// -standby/-repl-secret: replication is per-group and not yet
// directory-aware.
//
// -metrics-addr enables metrics collection and serves an operations
// endpoint on the given address: GET /metrics returns a flat JSON snapshot
// of every counter, gauge, and latency histogram in the runtime
// (join/rekey/ack rates, retransmissions, evictions, wire traffic, queue
// pressure), and /debug/pprof/ exposes the standard Go profiler. Bind it to
// a loopback or otherwise private address — the endpoint is unauthenticated
// by design, like expvar.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"enclaves/internal/crypto"
	"enclaves/internal/group"
	"enclaves/internal/metrics"
	"enclaves/internal/replica"
	"enclaves/internal/transport"

	// The blank import registers the member layer's instruments, so the
	// /metrics snapshot always enumerates the full schema (zero-valued
	// until used) and dashboards can rely on key presence.
	_ "enclaves/internal/member"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "enclaved:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("enclaved", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:7465", "TCP listen address")
		name        = fs.String("name", "leader", "leader identity")
		usersPath   = fs.String("users", "", "path to users file (name:password per line)")
		rekeyOn     = fs.String("rekey", "join,leave", "rekey policy: comma-set of {join,leave,none}")
		heartbeat   = fs.Duration("heartbeat", 2*time.Second, "idle-member heartbeat interval (0 disables liveness probing)")
		ackWait     = fs.Duration("ack-timeout", 10*time.Second, "expel a member whose admin ack is overdue by this much (0 disables)")
		outbox      = fs.Int("outbox", 1024, "per-member outbound queue bound; overflow expels the member (<0 = unbounded)")
		coalesce    = fs.Duration("rekey-coalesce", 0, "fold join/leave rekey bursts into one rotation per window (0 = rotate immediately)")
		lkhOn       = fs.Bool("lkh", false, "rekey through a logical key hierarchy: O(log n) re-seals per rotation instead of O(n)")
		lkhArity    = fs.Int("lkh-arity", 0, "LKH key-tree branching factor (0 = default)")
		metricsAddr = fs.String("metrics-addr", "", "serve /metrics (JSON snapshot) and /debug/pprof on this address (empty disables collection)")
		verbose     = fs.Bool("v", false, "verbose logging")

		nGroups   = fs.Int("groups", 0, "multi-tenant: precreate this many groups g0..g(N-1) beside the default group")
		maxGroups = fs.Int("max-groups", 0, "multi-tenant: cap on dynamically created groups (0 = none, <0 = unlimited)")
		groupTTL  = fs.Duration("group-ttl", 0, "multi-tenant: collect dynamic groups idle this long (0 = never)")

		replSecret  = fs.String("repl-secret", "", "path to the shared replication secret; derives K_r and enables leader replication")
		standby     = fs.Bool("standby", false, "run as hot standby: replicate from -replicate-from, promote on primary death")
		replFrom    = fs.String("replicate-from", "", "primary leader address to replicate from (standby mode)")
		standbyName = fs.String("standby-name", "standby", "this standby's identity on the replication channel")
		replPing    = fs.Duration("repl-ping", time.Second, "replication stream liveness ping interval (primary with -repl-secret)")
		replSilence = fs.Duration("repl-silence", 5*time.Second, "declare the primary dead after this much replication silence (standby mode)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *usersPath == "" {
		return fmt.Errorf("-users is required")
	}
	if *standby != (*replFrom != "") {
		return fmt.Errorf("-standby and -replicate-from must be used together")
	}
	if *standby && *replSecret == "" {
		return fmt.Errorf("-standby requires -repl-secret (the key the primary seals the replication stream with)")
	}
	if *nGroups < 0 {
		return fmt.Errorf("-groups must be >= 0")
	}
	if *groupTTL < 0 {
		return fmt.Errorf("-group-ttl must be >= 0")
	}
	multiTenant := *nGroups > 0 || *maxGroups != 0
	if *groupTTL > 0 && !multiTenant {
		return fmt.Errorf("-group-ttl requires multi-tenant mode (-groups or -max-groups)")
	}
	if multiTenant && *standby {
		return fmt.Errorf("-standby is incompatible with multi-tenant mode: replication is per-group")
	}
	if multiTenant && *replSecret != "" {
		return fmt.Errorf("-repl-secret is incompatible with multi-tenant mode: replication is per-group")
	}
	passwords, err := loadPasswords(*usersPath)
	if err != nil {
		return err
	}
	policy, err := parsePolicy(*rekeyOn)
	if err != nil {
		return err
	}
	var replKey crypto.Key
	if *replSecret != "" {
		if replKey, err = loadReplKey(*replSecret, *name); err != nil {
			return err
		}
	}

	cfg := group.Config{
		Name:  *name,
		Rekey: policy,
		Liveness: group.Liveness{
			HeartbeatInterval: *heartbeat,
			AckTimeout:        *ackWait,
		},
		OutboxLimit:   *outbox,
		RekeyCoalesce: *coalesce,
		LKH:           *lkhOn,
		LKHArity:      *lkhArity,
	}
	if *verbose {
		cfg.Logf = log.Printf
		cfg.OnEvent = func(e group.Event) { log.Printf("enclaved: audit: %s", e) }
	}

	// Metrics must be live before any group exists: precreated groups count
	// into group_directory_groups at construction, and increments to a
	// disabled registry are dropped.
	if *metricsAddr != "" {
		srv, maddr, err := startMetricsServer(*metricsAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		log.Printf("enclaved: metrics on http://%s/metrics, pprof on http://%s/debug/pprof/", maddr, maddr)
	}
	if multiTenant {
		return runDirectory(directoryParams{
			template:  cfg,
			passwords: passwords,
			addr:      *addr,
			groups:    *nGroups,
			maxGroups: *maxGroups,
			ttl:       *groupTTL,
		})
	}

	cfg.Users = deriveKeys(passwords, *name)[*name]
	var leader *group.Leader
	if *standby {
		leader, err = runStandby(cfg, *replFrom, *standbyName, replKey, *replSilence)
	} else {
		cfg.ReplKey, cfg.ReplPing = replKey, *replPing
		leader, err = group.NewLeader(cfg)
	}
	if err != nil {
		return err
	}
	l, err := transport.ListenTCP(*addr)
	if err != nil {
		leader.Close()
		return err
	}
	role := "leader"
	switch {
	case *standby:
		role = "promoted leader"
	case replKey.Valid():
		role = fmt.Sprintf("leader (replicating, ping %v)", *replPing)
	}
	log.Printf("enclaved: %s %q serving %d users on %s (rekey on %s, coalesce %v, heartbeat %v, ack timeout %v, outbox %d)",
		role, *name, len(cfg.Users), l.Addr(), *rekeyOn, *coalesce, *heartbeat, *ackWait, *outbox)

	// Graceful shutdown on SIGINT/SIGTERM: close every member connection,
	// then the listener. The leader closes first: only then does Serve read
	// the accept error as a clean stop (exit 0) and not as a failure.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		log.Printf("enclaved: %v, shutting down", sig)
		leader.Close()
		l.Close()
	}()
	return leader.Serve(l)
}

// directoryParams carries the multi-tenant serving configuration: a leader
// config template (per-group configs clone it with group-specific Name,
// Tenant, and Users) plus the directory shape.
type directoryParams struct {
	template  group.Config
	passwords map[string]string
	addr      string
	groups    int
	maxGroups int
	ttl       time.Duration
}

// runDirectory serves a multi-tenant daemon: a group directory behind one
// shared listener, each stream routed by its group label.
func runDirectory(p directoryParams) error {
	precreate := make([]string, 0, p.groups+1)
	precreate = append(precreate, p.template.Name)
	for i := 0; i < p.groups; i++ {
		g := fmt.Sprintf("g%d", i)
		if g != p.template.Name {
			precreate = append(precreate, g)
		}
	}
	// Per-group key derivation: the group ID is the leader identity in the
	// derivation, so one password file yields unrelated keys per group — the
	// isolation-by-construction boundary. The precreated groups derive as one
	// batch so start-up uses every core whatever the groups × users shape; a
	// dynamic group derives when its first connection names it.
	precreated := deriveKeys(p.passwords, precreate...)
	dir, err := group.NewDirectory(group.DirectoryConfig{
		NewConfig: func(g string) (group.Config, error) {
			cfg := p.template
			cfg.Name = g
			cfg.Tenant = g
			if cfg.Users = precreated[g]; cfg.Users == nil {
				cfg.Users = deriveKeys(p.passwords, g)[g]
			}
			return cfg, nil
		},
		Precreate:  precreate,
		Default:    p.template.Name,
		MaxDynamic: p.maxGroups,
		TTL:        p.ttl,
		Logf:       p.template.Logf,
	})
	if err != nil {
		return err
	}
	precreated = nil // every Leader holds its own copy now; no connection is served yet
	nl, err := net.Listen("tcp", p.addr)
	if err != nil {
		dir.Close()
		return err
	}
	log.Printf("enclaved: multi-tenant daemon on %s: %d groups precreated (default %q), dynamic cap %d, idle TTL %v",
		nl.Addr(), len(precreate), p.template.Name, p.maxGroups, p.ttl)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		log.Printf("enclaved: %v, shutting down", sig)
		nl.Close()
		dir.Close()
	}()
	return dir.Serve(nl)
}

// runStandby replicates leader cfg.Name from the primary at from — as
// standby self, over the channel sealed under key — until the stream has
// been silent past silence, then promotes the replica with cfg and returns
// the promoted leader, ready to serve. A termination signal during the
// standby phase exits cleanly instead of promoting (the primary is still
// alive — a second leader must not appear).
func runStandby(cfg group.Config, from, self string, key crypto.Key, silence time.Duration) (*group.Leader, error) {
	sb, err := replica.NewStandby(replica.StandbyConfig{
		Standby: self,
		Primary: cfg.Name,
		Key:     key,
		Dial:    func() (transport.Conn, error) { return transport.DialTCP(from) },
		Silence: silence,
		Logf:    log.Printf,
	})
	if err != nil {
		return nil, err
	}
	log.Printf("enclaved: standby %q replicating leader %q from %s (silence budget %v)",
		self, cfg.Name, from, silence)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	select {
	case sig := <-sigCh:
		sb.Stop()
		return nil, fmt.Errorf("%v during standby phase, exiting without promotion", sig)
	case <-sb.Dead():
	}
	st := sb.State()
	sb.Stop()
	log.Printf("enclaved: primary silent past %v; promoting with %d members at epoch %d",
		silence, len(st.Members), st.Epoch)
	return group.Promote(cfg, st)
}

// loadReplKey derives the replication key K_r from the shared secret file:
// first non-empty, non-comment line, bound to the leader identity so
// distinct groups sharing a secret file still use distinct keys.
func loadReplKey(path, leader string) (crypto.Key, error) {
	f, err := os.Open(path)
	if err != nil {
		return crypto.Key{}, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		return crypto.DeriveKey("standby", leader, line), nil
	}
	if err := sc.Err(); err != nil {
		return crypto.Key{}, err
	}
	return crypto.Key{}, fmt.Errorf("%s: no secret line", path)
}

// startMetricsServer enables metrics collection and serves the snapshot
// endpoint plus the Go profiler on addr, returning the bound address (which
// resolves ":0" for tests). The default ServeMux is deliberately avoided so
// nothing else in the process can leak handlers onto this listener.
func startMetricsServer(addr string) (*http.Server, string, error) {
	metrics.Enable()
	mux := http.NewServeMux()
	mux.Handle("/metrics", metrics.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("metrics listener: %w", err)
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}

// loadPasswords parses the "name:password" users file. Derivation into
// long-term keys is separate (deriveKeys) because a multi-tenant daemon
// derives the same password set once per group, bound to each group's
// identity.
func loadPasswords(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	passwords := make(map[string]string)
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, password, ok := strings.Cut(line, ":")
		if !ok || name == "" {
			return nil, fmt.Errorf("%s:%d: expected name:password", path, lineNo)
		}
		passwords[name] = password
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(passwords) == 0 {
		return nil, fmt.Errorf("%s: no users", path)
	}
	return passwords, nil
}

// deriveKeys is crypto.DeriveKeys behind a seam, so tests can count how many
// derivations a start-up performs.
var deriveKeys = crypto.DeriveKeys

// parsePolicy parses the -rekey flag.
func parsePolicy(s string) (group.RekeyPolicy, error) {
	var p group.RekeyPolicy
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(part) {
		case "join":
			p.OnJoin = true
		case "leave":
			p.OnLeave = true
		case "none", "":
		default:
			return p, fmt.Errorf("unknown rekey policy element %q", part)
		}
	}
	return p, nil
}
