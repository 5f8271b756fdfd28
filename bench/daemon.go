//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// buildDir holds the daemon binary, relative to the working directory (the
// root of the checkout). The go tool relinks only when a source changed.
const buildDir = ".bench_build"

// buildDaemon compiles cmd/enclaved and returns the binary's path and how
// long the build took.
func buildDaemon() (string, time.Duration, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir, "enclaved"))
	if err != nil {
		return "", 0, err
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", 0, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/enclaved")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/enclaved: %v\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// freePort asks the kernel for an unused loopback port by binding :0.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// daemon is one running enclaved child process.
type daemon struct {
	cmd         *exec.Cmd
	addr        string
	metricsAddr string // empty unless traced
	dir         string // temp dir with the users file and stderr log
	exited      chan struct{}
	stopMu      sync.Mutex // the signal handler may stop it too
}

// startDaemon spawns enclaved in multi-tenant mode with shipped defaults;
// only -users, -groups, -addr and -lkh vary (plus -metrics-addr when
// traced). It returns once the listener accepts a dial. On any error the
// child has been reaped.
func startDaemon(bin string, w workload, env environment, traced bool) (*daemon, error) {
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, exited: make(chan struct{})}
	fail := func(err error) (*daemon, error) {
		d.stop()
		return nil, err
	}

	var users bytes.Buffer
	for m := 0; m < w.Members; m++ {
		fmt.Fprintf(&users, "%s:%s\n", userID(m), password)
	}
	usersPath := filepath.Join(dir, "users.txt")
	if err := os.WriteFile(usersPath, users.Bytes(), 0o600); err != nil {
		return fail(err)
	}
	if d.addr, err = freePort(); err != nil {
		return fail(err)
	}
	args := []string{"-addr", d.addr, "-users", usersPath, "-groups", strconv.Itoa(w.Groups)}
	if w.LKH {
		args = append(args, "-lkh")
	}
	if traced {
		if d.metricsAddr, err = freePort(); err != nil {
			return fail(err)
		}
		args = append(args, "-metrics-addr", d.metricsAddr)
	}
	stderr, err := os.Create(filepath.Join(dir, "enclaved.stderr"))
	if err != nil {
		return fail(err)
	}
	defer stderr.Close() // the child holds its own descriptor

	d.cmd = exec.Command(bin, args...)
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(env.DaemonProcs))
	d.cmd.Stderr = stderr
	// Should the generator be killed outright, the kernel takes the daemon
	// with it, so no orphan enclaved is left to skew the next run.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		d.cmd = nil
		return fail(err)
	}
	liveDaemon.Store(d)
	go func() {
		d.cmd.Wait()
		close(d.exited)
	}()

	// Ready when the listener answers. The daemon derives every user's key
	// before it listens, so this takes as long as its PBKDF2 does.
	deadline := time.Now().Add(60 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", d.addr, time.Second)
		if err == nil {
			c.Close()
			return d, nil
		}
		select {
		case <-d.exited:
			return fail(fmt.Errorf("enclaved exited during start-up: %s", d.stderrTail()))
		default:
		}
		if time.Now().After(deadline) {
			return fail(errors.New("enclaved did not listen within 60s"))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// liveDaemon is the child a termination signal must take down.
var liveDaemon atomic.Pointer[daemon]

// stopOnSignal reaps the live daemon when the generator is interrupted.
func stopOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		if d := liveDaemon.Load(); d != nil {
			d.stop()
		}
		os.Exit(exitFailed)
	}()
}

// stop ends the child: SIGTERM, wait, SIGKILL after 5 s. It always waits
// for the process to be gone, then removes the temp dir. Safe to call on a
// half-started daemon and more than once.
func (d *daemon) stop() {
	d.stopMu.Lock()
	defer d.stopMu.Unlock()
	if d.cmd != nil {
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(5 * time.Second):
			d.cmd.Process.Kill()
			<-d.exited
		}
		d.cmd = nil
	}
	os.RemoveAll(d.dir)
}

func (d *daemon) stderrTail() string {
	b, _ := os.ReadFile(filepath.Join(d.dir, "enclaved.stderr"))
	if len(b) > 2048 {
		b = b[len(b)-2048:]
	}
	return strings.TrimSpace(string(b))
}

// procStat is what /proc says about a process at one instant, summed over
// its threads.
type procStat struct {
	cpu   time.Duration // time on a CPU
	wait  time.Duration // time runnable but waiting for a CPU
	rssKB int64
	ctxsw int64 // voluntary+involuntary
}

// clockTick is USER_HZ, which Linux fixes at 100 for /proc on every
// architecture Go supports.
const clockTick = time.Second / 100

// readProc reads CPU time from the threads' schedstat, which counts
// nanoseconds; where the kernel keeps none it falls back to utime+stime
// from stat, which counts 10 ms ticks.
func readProc(pid int) (procStat, error) {
	var ps procStat
	base := "/proc/" + strconv.Itoa(pid)
	status, err := os.ReadFile(base + "/status")
	if err != nil {
		return ps, err
	}
	ps.rssKB = statusField(status, "VmRSS:")
	tasks, err := os.ReadDir(base + "/task")
	if err != nil {
		return ps, err
	}
	for _, t := range tasks {
		dir := base + "/task/" + t.Name()
		b, err := os.ReadFile(dir + "/status")
		if err != nil {
			continue // the thread exited between ReadDir and here
		}
		ps.ctxsw += statusField(b, "voluntary_ctxt_switches:") + statusField(b, "nonvoluntary_ctxt_switches:")
		if b, err = os.ReadFile(dir + "/schedstat"); err == nil {
			if f := strings.Fields(string(b)); len(f) >= 2 {
				run, _ := strconv.ParseInt(f[0], 10, 64)
				wait, _ := strconv.ParseInt(f[1], 10, 64)
				ps.cpu += time.Duration(run)
				ps.wait += time.Duration(wait)
			}
		}
	}
	if ps.cpu > 0 {
		return ps, nil
	}
	stat, err := os.ReadFile(base + "/stat")
	if err != nil {
		return ps, err
	}
	// utime and stime are fields 14 and 15 of the line, 12 and 13 after the
	// parenthesised command name.
	i := bytes.LastIndexByte(stat, ')')
	f := strings.Fields(string(stat[i+1:]))
	if i < 0 || len(f) < 13 {
		return ps, fmt.Errorf("%s/stat: unexpected format", base)
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	ps.cpu = time.Duration(ut+st) * clockTick
	return ps, nil
}

func statusField(status []byte, key string) int64 {
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				v, _ := strconv.ParseInt(f[0], 10, 64)
				return v
			}
		}
	}
	return 0
}

// scrape reads the daemon's counters and goroutine total over HTTP. Only
// plain numbers are kept: the power-of-two histograms are not read.
func (d *daemon) scrape() (map[string]float64, error) {
	out := make(map[string]float64)
	body, err := httpGet("http://" + d.metricsAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	if err := decodeNumbers(body, out); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	prof, err := httpGet("http://" + d.metricsAddr + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		return nil, err
	}
	// First line: "goroutine profile: total N".
	line, _, _ := strings.Cut(string(prof), "\n")
	if f := strings.Fields(line); len(f) > 0 {
		n, _ := strconv.ParseFloat(f[len(f)-1], 64)
		out["goroutines"] = n
	}
	return out, nil
}

// decodeNumbers keeps the plain numeric members of a flat JSON object.
func decodeNumbers(body []byte, out map[string]float64) error {
	var raw map[string]any
	if err := json.Unmarshal(body, &raw); err != nil {
		return err
	}
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return nil
}

func httpGet(url string) ([]byte, error) {
	c := http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}
