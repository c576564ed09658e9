package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// requestTimeout is the hang guard: a scripted request that takes this
// long is not slow, it is stuck (see README, "Why contribute has no
// review").
const requestTimeout = 5 * time.Second

// layout names the directories the harness uses, all inside the
// checkout.
type layout struct {
	root  string // repository root: holds go.mod of module courserank
	build string // <root>/.bench_build: the built server binary
	out   string // <root>/bench/out: trace-<workload>.json, goroutine dumps, durable directories, server logs
}

func newLayout(root string) (layout, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return layout{}, err
	}
	if _, err := os.Stat(filepath.Join(abs, "cmd", "courserank", "main.go")); err != nil {
		return layout{}, fmt.Errorf("bench: %s is not the repository root (no cmd/courserank): run from the root of a checkout", abs)
	}
	l := layout{root: abs, build: filepath.Join(abs, ".bench_build"), out: filepath.Join(abs, "bench", "out")}
	for _, d := range []string{l.build, l.out} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return layout{}, err
		}
	}
	return l, nil
}

// buildServer compiles cmd/courserank from the working tree. The go
// build cache makes every build after the first a relink check.
func (l layout) buildServer() (string, error) {
	bin := filepath.Join(l.build, "courserank")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/courserank")
	cmd.Dir = l.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("bench: building cmd/courserank: %v\n%s", err, out)
	}
	return bin, nil
}

// serverProc is one running courserank process.
type serverProc struct {
	cmd      *exec.Cmd
	exited   chan struct{} // closed once the process has been waited for
	host     string        // 127.0.0.1:port
	side     string        // pprof listener, http://127.0.0.1:port
	dir      string        // durable directory, removed on stop
	log      *os.File
	client   *http.Client
	tokens   []string      // session token of world.students[i]
	headers  []http.Header // the Authorization header of world.students[i]
	stopped  bool
	setupSec float64 // spawn → health 200 + every student logged in
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServer spawns a fresh server for wl, waits for /api/health and
// logs every student in; the elapsed time is the run's set-up time.
func startServer(l layout, bin string, wl workload, scale string, w world, clients int) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	sidePort, err := freePort()
	if err != nil {
		return nil, err
	}
	p := &serverProc{
		exited: make(chan struct{}),
		host:   fmt.Sprintf("127.0.0.1:%d", port),
		side:   fmt.Sprintf("http://127.0.0.1:%d", sidePort),
		client: &http.Client{
			Timeout: requestTimeout,
			Transport: &http.Transport{
				MaxIdleConns:        clients + 2,
				MaxIdleConnsPerHost: clients + 2,
				DisableCompression:  true,
			},
		},
	}
	args := []string{"-scale", scale, "-addr", fmt.Sprintf("127.0.0.1:%d", port), "-pprof", fmt.Sprintf("127.0.0.1:%d", sidePort)}
	if wl.durable {
		if p.dir, err = os.MkdirTemp(l.out, "durable-"); err != nil {
			return nil, err
		}
		args = append(args, "-durable", p.dir, "-fsync", "sync")
	}
	if wl.shards > 0 {
		args = append(args, "-shards", strconv.Itoa(wl.shards))
	}
	if p.log, err = os.Create(filepath.Join(l.out, "server-"+wl.name+".log")); err != nil {
		return nil, err
	}
	p.cmd = exec.Command(bin, args...)
	p.cmd.Stdout, p.cmd.Stderr = p.log, p.log
	// The server must not outlive a harness that dies without cleaning up.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := p.cmd.Start(); err != nil {
		p.log.Close()
		return nil, fmt.Errorf("bench: starting server: %w", err)
	}
	go func() {
		_ = p.cmd.Wait() // the exit status of a killed process carries nothing
		close(p.exited)
	}()
	if err := p.waitHealthy(60 * time.Second); err != nil {
		p.stop()
		return nil, err
	}
	p.tokens = make([]string, len(w.students))
	p.headers = make([]http.Header, len(w.students))
	for i, s := range w.students {
		code, body, err := p.do("POST", "/api/login", "", []byte(`{"username":"`+s.username+`"}`))
		if err != nil || !statusOK(code) {
			p.stop()
			return nil, fmt.Errorf("bench: login %s: status %d, %v", s.username, code, err)
		}
		var resp struct {
			Token string `json:"token"`
		}
		if err := json.Unmarshal(body, &resp); err != nil || resp.Token == "" {
			p.stop()
			return nil, fmt.Errorf("bench: login %s: no token in %q", s.username, body)
		}
		p.tokens[i] = resp.Token
		p.headers[i] = http.Header{"Authorization": {"Bearer " + resp.Token}}
	}
	p.setupSec = time.Since(t0).Seconds()
	if err := p.checkStats(wl); err != nil {
		p.stop()
		return nil, err
	}
	return p, nil
}

func (p *serverProc) waitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-p.exited:
			return fmt.Errorf("bench: server exited during start-up (see %s)", p.log.Name())
		default:
		}
		code, _, err := p.do("GET", "/api/health", "", nil)
		if err == nil && code == http.StatusOK {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("bench: server did not answer /api/health within %v (see %s)", limit, p.log.Name())
}

// stop kills the server and waits until it has ended; stopping twice is
// harmless, so callers can defer it and still stop early.
func (p *serverProc) stop() {
	if p.stopped {
		return
	}
	p.stopped = true
	_ = p.cmd.Process.Kill() // fails only when the process has already ended
	<-p.exited
	p.client.CloseIdleConnections()
	p.log.Close()
	if p.dir != "" {
		os.RemoveAll(p.dir)
	}
}

// do sends one request and reads the whole response.
func (p *serverProc) do(method, path, token string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, "http://"+p.host+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// send runs one scripted entry and discards the body; the timed loop
// uses it. The URL and the header were built before timing started.
func (p *serverProc) send(e *entry) (int, error) {
	u := *e.url
	u.Scheme, u.Host = "http", p.host
	req := &http.Request{Method: e.method, URL: &u, Host: p.host, Header: p.headers[e.student]}
	if e.body != nil {
		req.Body = io.NopCloser(bytes.NewReader(e.body))
		req.ContentLength = int64(len(e.body))
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// dumpGoroutines saves the server's goroutine stacks after a hang.
func (p *serverProc) dumpGoroutines(path string) error {
	c := &http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get(p.side + "/debug/pprof/goroutine?debug=2")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, resp.Body); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuSeconds is the server's user+system CPU time so far, from
// /proc/<pid>/stat.
func (p *serverProc) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields count from the
	// closing parenthesis.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("bench: short /proc stat line %q", s)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bench: unparsable /proc stat line %q", s)
	}
	const ticksPerSecond = 100 // USER_HZ, fixed at 100 on Linux
	return (utime + stime) / ticksPerSecond, nil
}

// peakRSSMB is the server's VmHWM.
func (p *serverProc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("bench: no VmHWM in /proc status")
}

// memStats are the runtime counters the side listener's heap profile
// header carries.
type memStats struct {
	totalAlloc, mallocs, numGC float64
}

func (p *serverProc) memStats() (memStats, error) {
	c := &http.Client{Timeout: requestTimeout}
	resp, err := c.Get(p.side + "/debug/pprof/heap?debug=1")
	if err != nil {
		return memStats{}, err
	}
	defer resp.Body.Close()
	var ms memStats
	found := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		for _, f := range []struct {
			key string
			dst *float64
		}{{"# TotalAlloc = ", &ms.totalAlloc}, {"# Mallocs = ", &ms.mallocs}, {"# NumGC = ", &ms.numGC}} {
			if rest, ok := strings.CutPrefix(line, f.key); ok {
				if *f.dst, err = strconv.ParseFloat(rest, 64); err != nil {
					return memStats{}, fmt.Errorf("bench: heap profile line %q: %w", line, err)
				}
				found++
			}
		}
	}
	if found != 3 {
		return memStats{}, fmt.Errorf("bench: heap profile header carried %d of 3 runtime counters", found)
	}
	return ms, sc.Err()
}

// apiStats is the part of /api/stats the per-layer counts read.
type apiStats struct {
	PlanCache struct {
		Hits, Misses float64
	} `json:"planCache"`
	FlexCompile struct {
		Hits, Misses float64
	} `json:"flexCompile"`
	Matviews struct {
		Hits, StaleHits, Misses, Refreshes, Invalidations float64
	} `json:"matviews"`
	Transactions struct {
		Committed, Conflicts float64
	} `json:"transactions"`
	Durability *struct {
		WAL struct {
			Commits float64 `json:"commits"`
		} `json:"wal"`
		Checkpoints float64 `json:"checkpoints"`
	} `json:"durability"`
	WALWait *struct {
		SyncWaitNs, RideWaitNs, Syncs, GroupRides float64
	} `json:"walWait"`
	Sharding *struct {
		FastPath    float64 `json:"fast_path"`
		Replicated  float64 `json:"replicated"`
		FanOut      float64 `json:"fan_out"`
		ApplyErrors float64 `json:"apply_errors"`
	} `json:"sharding"`
}

// statsKeys are the /api/stats counters apiStats decodes. A key the
// server renamed would decode as zero and every ratio built on it would
// quietly read 0 or 1, so the first read of a server checks that each
// is there.
var statsKeys = struct{ always, durable, sharded []string }{
	always: []string{
		"planCache.hits", "planCache.misses", "flexCompile.hits", "flexCompile.misses",
		"matviews.hits", "matviews.staleHits", "matviews.misses", "matviews.refreshes", "matviews.invalidations",
		"transactions.committed", "transactions.conflicts",
	},
	durable: []string{
		"durability.wal.commits", "durability.checkpoints",
		"walWait.syncWaitNs", "walWait.rideWaitNs", "walWait.syncs", "walWait.groupRides",
	},
	sharded: []string{"sharding.fast_path", "sharding.replicated", "sharding.fan_out", "sharding.apply_errors"},
}

func (p *serverProc) checkStats(wl workload) error {
	code, body, err := p.do("GET", "/api/stats", p.tokens[0], nil)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("bench: /api/stats: status %d, %v", code, err)
	}
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("bench: /api/stats: %w", err)
	}
	keys := statsKeys.always
	if wl.durable {
		keys = append(keys[:len(keys):len(keys)], statsKeys.durable...)
	}
	if wl.shards > 0 {
		keys = append(keys[:len(keys):len(keys)], statsKeys.sharded...)
	}
	for _, key := range keys {
		var at any = doc
		for _, part := range strings.Split(key, ".") {
			m, _ := at.(map[string]any)
			at = m[part]
		}
		if _, ok := at.(float64); !ok {
			return fmt.Errorf("bench: /api/stats has no counter %s: apiStats in bench/proc.go no longer matches internal/server's statsPayload", key)
		}
	}
	return nil
}

func (p *serverProc) apiStats() (apiStats, error) {
	var st apiStats
	code, body, err := p.do("GET", "/api/stats", p.tokens[0], nil)
	if err != nil || code != http.StatusOK {
		return st, fmt.Errorf("bench: /api/stats: status %d, %v", code, err)
	}
	return st, json.Unmarshal(body, &st)
}

// statusOK reports whether an HTTP status is a success for the
// benchmark: every scripted request is valid by construction, so
// anything but 2xx is a failure.
func statusOK(code int) bool { return code >= http.StatusOK && code < http.StatusMultipleChoices }
