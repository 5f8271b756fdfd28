package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"enclaves/internal/crypto"
	"enclaves/internal/member"
	"enclaves/internal/transport"
)

// opsGet sends req raw to the operations endpoint at addr and returns the
// status line and body of the response, read until the server closes.
func opsGet(t *testing.T, addr, req string) (status string, body []byte) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(20 * time.Second))
	go c.Write([]byte(req))
	resp, err := io.ReadAll(c)
	if err != nil {
		t.Fatalf("%q: %v after %q", req, err, resp)
	}
	head, body, ok := bytes.Cut(resp, []byte("\r\n\r\n"))
	if !ok || !bytes.Contains(head, []byte("\r\nConnection: close")) {
		t.Fatalf("%q: response without Connection: close header block: %q", req, resp)
	}
	status, _, _ = strings.Cut(string(head), "\r\n")
	return status, body
}

// TestMetricsServer boots the -metrics-addr endpoint and asserts the
// operational contract: a JSON snapshot enumerating the instruments of
// every layer, the profile index, text and gzipped profiles, a CPU profile
// and an execution trace, and refusals of everything else.
func TestMetricsServer(t *testing.T) {
	ln, err := startOps("127.0.0.1:0", opsTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()
	get := func(target string) (string, []byte) {
		return opsGet(t, addr, "GET "+target+" HTTP/1.1\r\nHost: x\r\n\r\n")
	}

	status, body := get("/metrics")
	if status != "HTTP/1.1 200 OK" {
		t.Fatalf("/metrics status = %q", status)
	}
	var snap map[string]any
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics is not JSON: %v\n%s", err, body)
	}
	if len(snap) < 12 {
		t.Fatalf("snapshot has %d instruments, want >= 12: %v", len(snap), snap)
	}
	// Every instrumented layer must be represented.
	for _, prefix := range []string{"group_", "member_", "transport_", "queue_"} {
		found := false
		for name := range snap {
			if strings.HasPrefix(name, prefix) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %s* instrument in snapshot", prefix)
		}
	}
	// Histograms serialize as objects with quantile fields.
	hist, ok := snap["group_ack_latency_us"].(map[string]any)
	if !ok {
		t.Fatalf("group_ack_latency_us = %T, want object", snap["group_ack_latency_us"])
	}
	if _, ok := hist["p99_us"]; !ok {
		t.Errorf("histogram snapshot missing p99_us: %v", hist)
	}

	if status, body = get("/debug/pprof/"); status != "HTTP/1.1 200 OK" {
		t.Fatalf("/debug/pprof/ status = %q", status)
	}
	for _, name := range []string{"goroutine", "heap", "profile", "trace"} {
		if !strings.Contains(string(body), "\t"+name+"\n") {
			t.Errorf("pprof index does not list %s:\n%s", name, body)
		}
	}
	if _, body = get("/debug/pprof/goroutine?debug=1"); !strings.HasPrefix(string(body), "goroutine profile: total ") {
		t.Errorf("goroutine?debug=1 = %.80q", body)
	}
	for _, target := range []string{"/debug/pprof/heap?gc=1", "/debug/pprof/profile?seconds=1"} {
		if status, body = get(target); status != "HTTP/1.1 200 OK" || !bytes.HasPrefix(body, []byte{0x1f, 0x8b}) {
			t.Errorf("%s = %q, %.16q; want 200 and gzip bytes", target, status, body)
		}
	}
	if status, body = get("/debug/pprof/trace?seconds=1"); status != "HTTP/1.1 200 OK" || !bytes.HasPrefix(body, []byte("go 1.")) {
		t.Errorf("trace = %q, %.16q; want 200 and an execution trace", status, body)
	}

	for _, tc := range []struct{ req, want string }{
		{"GET /nope HTTP/1.1\r\n\r\n", "HTTP/1.1 404 Not Found"},
		{"GET /debug/pprof/nope HTTP/1.1\r\n\r\n", "HTTP/1.1 404 Not Found"},
		{"POST /metrics HTTP/1.1\r\nContent-Length: 0\r\n\r\n", "HTTP/1.1 405 Method Not Allowed"},
		{"GET /metrics\r\n\r\n", "HTTP/1.1 400 Bad Request"},
	} {
		if status, _ := opsGet(t, addr, tc.req); status != tc.want {
			t.Errorf("%q: status %q, want %q", tc.req, status, tc.want)
		}
	}

	// An over-long request line is refused and the connection closed: what
	// comes back before the close, if the reset does not swallow it, is a 400.
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	go c.Write([]byte("GET /" + strings.Repeat("a", 2*maxOpsRequest) + " HTTP/1.1\r\n\r\n"))
	resp, err := io.ReadAll(c)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("over-long request line: connection still open after 10 s")
	}
	if len(resp) > 0 && !bytes.HasPrefix(resp, []byte("HTTP/1.1 400 ")) {
		t.Errorf("over-long request line answered %.40q", resp)
	}
}

// TestOpsClosesIdleConnection: a client that connects and sends nothing is
// hung up on once the connection's deadline passes.
func TestOpsClosesIdleConnection(t *testing.T) {
	ln, err := startOps("127.0.0.1:0", 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadAll(c); err != nil {
		t.Fatalf("idle connection: %v, want it closed by the server", err)
	}
}

// pipeConn reads a fixed request and writes its response into a net.Pipe.
type pipeConn struct {
	net.Conn
	req io.Reader
}

func (c pipeConn) Read(p []byte) (int, error) { return c.req.Read(p) }

// FuzzServeOps: no request makes the operations responder panic, and every
// response it writes is a status line. Targets that run a CPU profile or a
// trace for seconds are skipped.
func FuzzServeOps(f *testing.F) {
	for _, req := range []string{
		"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET /debug/pprof/ HTTP/1.0\n\n",
		"GET /debug/pprof/heap?gc=1&debug=1 HTTP/1.1\r\n\r\n",
		"GET /debug/pprof/goroutine?debug=2 HTTP/1.1\r\n\r\n",
		"POST /metrics HTTP/1.1\r\n\r\n",
		"GET /x?seconds=-1 HTTP/1.1\r\n\r\n",
		"GET / HTTP/1.1\r\nUnterminated",
		"",
	} {
		f.Add([]byte(req))
	}
	f.Fuzz(func(t *testing.T, req []byte) {
		if bytes.Contains(req, []byte("profile")) || bytes.Contains(req, []byte("trace")) {
			t.Skip("runs for seconds")
		}
		srv, cli := net.Pipe()
		defer cli.Close()
		go serveOps(pipeConn{srv, bytes.NewReader(req)}, opsTimeout)
		resp, err := io.ReadAll(cli)
		if err != nil || !bytes.HasPrefix(resp, []byte("HTTP/1.1 ")) {
			t.Fatalf("%q answered %.40q, %v", req, resp, err)
		}
	})
}

// TestDaemonLinksNoHTTPStack guards the leader's and the client's linked
// code: neither may depend on the net/http tree and its TLS and X.509
// stacks, nor on the adversary, the model or the checker.
func TestDaemonLinksNoHTTPStack(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", ".", "../enclave").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	deps := strings.Fields(string(out))
	for _, banned := range []string{"net/http", "crypto/tls", "crypto/x509",
		"enclaves/internal/faultnet", "enclaves/internal/attack", "enclaves/internal/model", "enclaves/internal/checker"} {
		if slices.Contains(deps, banned) {
			t.Errorf("cmd/enclaved or cmd/enclave links %s", banned)
		}
	}
}

func TestLoadPasswords(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "users.txt")
	content := `# comment
alice:secret1

bob:secret:with:colons
`
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	passwords, err := loadPasswords(path)
	if err != nil {
		t.Fatal(err)
	}
	// Passwords with colons keep everything after the first colon.
	if len(passwords) != 2 || passwords["alice"] != "secret1" || passwords["bob"] != "secret:with:colons" {
		t.Fatalf("passwords = %q", passwords)
	}
	users := crypto.DeriveKeys(passwords, "leader")["leader"]
	if len(users) != 2 {
		t.Fatalf("got %d users, want 2", len(users))
	}
	if !users["alice"].Equal(crypto.DeriveKey("alice", "leader", "secret1")) {
		t.Error("alice's key is not DeriveKey of her password at this leader")
	}
	if users["alice"].Equal(users["bob"]) {
		t.Error("distinct users derived the same key")
	}
}

func TestLoadPasswordsErrors(t *testing.T) {
	dir := t.TempDir()

	empty := filepath.Join(dir, "empty.txt")
	if err := os.WriteFile(empty, []byte("# nothing\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := loadPasswords(empty); err == nil {
		t.Error("empty users file accepted")
	}

	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("no-colon-here\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := loadPasswords(bad); err == nil {
		t.Error("malformed line accepted")
	}

	if _, err := loadPasswords(filepath.Join(dir, "missing.txt")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestStartupDerivesEachKeyOnce counts derivations through the deriveKeys
// seam: a single-tenant start-up derives one key per user, a multi-tenant
// one a key per user per precreated group g0..g(N-1) and none for the
// default group (-name), which derives on its first connection. The unparsable
// listen address ends each run right after the keys exist.
func TestStartupDerivesEachKeyOnce(t *testing.T) {
	users := filepath.Join(t.TempDir(), "users.txt")
	if err := os.WriteFile(users, []byte("m0:pw\nm1:pw\nm2:pw\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	const nUsers = 3
	derived := 0
	deriveKeys = func(passwords map[string]string, leaders ...string) map[string]map[string]crypto.Key {
		derived += len(passwords) * len(leaders)
		return crypto.DeriveKeys(passwords, leaders...)
	}
	defer func() { deriveKeys = crypto.DeriveKeys }()
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"single-tenant", nil, nUsers},
		{"groups 5", []string{"-groups", "5"}, 5 * nUsers},
		{"groups 2 with lkh", []string{"-groups", "2", "-lkh"}, 2 * nUsers},
		{"default group named like a precreated one", []string{"-groups", "2", "-name", "g1"}, 2 * nUsers},
		{"dynamic only", []string{"-max-groups", "-1"}, 0},
	} {
		derived = 0
		err := run(append([]string{"-users", users, "-addr", "bad:addr:extra"}, tc.args...))
		if err == nil || !strings.Contains(err.Error(), "too many colons") {
			t.Errorf("%s: err = %v, want the listen failure", tc.name, err)
		}
		if derived != tc.want {
			t.Errorf("%s: %d derivations, want %d", tc.name, derived, tc.want)
		}
	}
}

// TestSingleTenantSigtermExitsClean: SIGTERM ends a single-tenant daemon
// with a nil error from run, i.e. exit status 0. It used to close the
// listener before the leader, so Serve saw an accept error on a leader not
// yet closed and the daemon exited 1 with "group: accept: transport: closed".
func TestSingleTenantSigtermExitsClean(t *testing.T) {
	users := filepath.Join(t.TempDir(), "users.txt")
	if err := os.WriteFile(users, []byte("m0:pw\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	// The test's own handler keeps a signal that lands before run has
	// registered its handler from killing the test binary; the signal is
	// sent again until run has seen one.
	own := make(chan os.Signal, 1)
	signal.Notify(own, syscall.SIGTERM)
	defer signal.Stop(own)
	done := make(chan error, 1)
	go func() { done <- run([]string{"-users", users, "-addr", "127.0.0.1:0"}) }()
	deadline := time.After(10 * time.Second)
	for {
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run after SIGTERM = %v, want nil (exit 0)", err)
			}
			return
		case <-time.After(20 * time.Millisecond):
		case <-deadline:
			t.Fatal("daemon still serving 10 s after SIGTERM")
		}
	}
}

// TestMultiTenantSigtermWithSessions: SIGTERM ends a multi-tenant daemon
// that is serving live sessions in several groups over one mux socket; run
// returns nil within 10 s and leaves no goroutine of the group layer
// behind.
func TestMultiTenantSigtermWithSessions(t *testing.T) {
	users := filepath.Join(t.TempDir(), "users.txt")
	if err := os.WriteFile(users, []byte("m0:pw\nm1:pw\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	own := make(chan os.Signal, 1)
	signal.Notify(own, syscall.SIGTERM)
	defer signal.Stop(own)
	done := make(chan error, 1)
	go func() { done <- run([]string{"-users", users, "-addr", addr, "-groups", "4"}) }()

	var mx *transport.Mux
	for deadline := time.Now().Add(10 * time.Second); mx == nil; {
		if mx, err = transport.DialMux(addr, transport.MuxConfig{}); err != nil && time.Now().After(deadline) {
			t.Fatalf("daemon never listened: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer mx.Close()
	for _, g := range []string{"g0", "g1", "g2", "g3"} {
		for _, u := range []string{"m0", "m1"} {
			c, err := mx.Open(g)
			if err != nil {
				t.Fatal(err)
			}
			m, err := member.Join(c, u, g, crypto.DeriveKey(u, g, "pw"))
			if err == nil {
				err = m.WaitReady(10 * time.Second)
			}
			if err != nil {
				t.Fatalf("join %s to %s: %v", u, g, err)
			}
		}
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after SIGTERM = %v, want nil (exit 0)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon still serving 10 s after SIGTERM")
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	if n := strings.Count(string(buf), "enclaves/internal/group."); n > 0 {
		t.Fatalf("%d stack lines in the group layer after run returned:\n%s", n, buf)
	}
}

func TestParsePolicy(t *testing.T) {
	tests := []struct {
		give                string
		wantJoin, wantLeave bool
		wantErr             bool
	}{
		{give: "join,leave", wantJoin: true, wantLeave: true},
		{give: "join", wantJoin: true},
		{give: "leave", wantLeave: true},
		{give: "none"},
		{give: ""},
		{give: " join , leave ", wantJoin: true, wantLeave: true},
		{give: "hourly", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.give, func(t *testing.T) {
			p, err := parsePolicy(tt.give)
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v, wantErr = %v", err, tt.wantErr)
			}
			if err != nil {
				return
			}
			if p.OnJoin != tt.wantJoin || p.OnLeave != tt.wantLeave {
				t.Errorf("policy = %+v", p)
			}
		})
	}
}

// TestLoadReplKey pins the replication-secret contract: comments and blank
// lines are skipped, derivation is deterministic, distinct leaders sharing
// a secret file get distinct keys, and an empty file is an error.
func TestLoadReplKey(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "repl.secret")
	if err := os.WriteFile(path, []byte("# comment\n\nhunter2\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	k1, err := loadReplKey(path, "leader")
	if err != nil {
		t.Fatal(err)
	}
	k2, err := loadReplKey(path, "leader")
	if err != nil {
		t.Fatal(err)
	}
	if !k1.Valid() || !k1.Equal(k2) {
		t.Fatal("replication key derivation is not deterministic")
	}
	other, err := loadReplKey(path, "other-leader")
	if err != nil {
		t.Fatal(err)
	}
	if k1.Equal(other) {
		t.Fatal("distinct leaders derived the same replication key")
	}

	empty := filepath.Join(dir, "empty.secret")
	if err := os.WriteFile(empty, []byte("# only a comment\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := loadReplKey(empty, "leader"); err == nil {
		t.Fatal("empty secret file accepted")
	}
}

// TestStandbyFlagValidation checks the standby flag set is rejected when
// inconsistent, before anything touches the network.
func TestStandbyFlagValidation(t *testing.T) {
	dir := t.TempDir()
	users := filepath.Join(dir, "users.txt")
	if err := os.WriteFile(users, []byte("alice:pw\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"standby without replicate-from", []string{"-standby", "-users", users}},
		{"replicate-from without standby", []string{"-replicate-from", "127.0.0.1:1", "-users", users}},
		{"standby without repl-secret", []string{"-standby", "-replicate-from", "127.0.0.1:1", "-users", users}},
	} {
		if err := run(tc.args); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestMultiTenantFlagValidation is the table-driven gate over the
// multi-tenant flag surface: the new -groups/-max-groups/-group-ttl flags,
// alone and combined with the existing -lkh and -standby/-repl-secret sets.
// Cases that should pass validation use an unparsable listen address, so a
// "too many colons" listen failure is the proof that flag validation
// accepted the combination without ever serving.
func TestMultiTenantFlagValidation(t *testing.T) {
	dir := t.TempDir()
	users := filepath.Join(dir, "users.txt")
	if err := os.WriteFile(users, []byte("m0:pw\nm1:pw\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	secret := filepath.Join(dir, "repl.secret")
	if err := os.WriteFile(secret, []byte("s3cret\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	const badAddr = "bad:addr:extra" // passes validation, fails at net.Listen
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string // substring of the expected error; "" means validation must pass
	}{
		{"negative groups", []string{"-groups", "-1", "-users", users}, "-groups"},
		{"negative ttl", []string{"-groups", "2", "-group-ttl", "-1s", "-users", users}, "-group-ttl"},
		{"ttl without multi-tenant", []string{"-group-ttl", "5s", "-users", users}, "-group-ttl"},
		{"standby with groups", []string{"-standby", "-replicate-from", "127.0.0.1:1", "-repl-secret", secret, "-groups", "2", "-users", users}, "-standby"},
		{"standby with max-groups", []string{"-standby", "-replicate-from", "127.0.0.1:1", "-repl-secret", secret, "-max-groups", "4", "-users", users}, "-standby"},
		{"repl-secret with groups", []string{"-repl-secret", secret, "-groups", "2", "-users", users}, "-repl-secret"},
		{"repl-secret with max-groups", []string{"-repl-secret", secret, "-max-groups", "-1", "-users", users}, "-repl-secret"},
		{"groups with lkh", []string{"-groups", "2", "-lkh", "-users", users, "-addr", badAddr}, ""},
		{"groups with lkh and arity", []string{"-groups", "2", "-lkh", "-lkh-arity", "4", "-users", users, "-addr", badAddr}, ""},
		{"max-groups unlimited", []string{"-max-groups", "-1", "-users", users, "-addr", badAddr}, ""},
		{"groups with ttl", []string{"-groups", "3", "-group-ttl", "1s", "-users", users, "-addr", badAddr}, ""},
		{"single-tenant lkh untouched", []string{"-lkh", "-users", users, "-addr", badAddr}, ""},
	} {
		err := run(tc.args)
		if err == nil {
			t.Errorf("%s: run returned nil (expected at least a listen failure)", tc.name)
			continue
		}
		if tc.wantErr == "" {
			if !strings.Contains(err.Error(), "too many colons") {
				t.Errorf("%s: validation rejected a valid combination: %v", tc.name, err)
			}
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.wantErr)
		}
	}
}
