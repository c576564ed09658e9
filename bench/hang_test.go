package main

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestHangGuard drives the load loop against a server that never
// answers: the run must end with errHang and leave the server's
// goroutine stacks in the out directory.
func TestHangGuard(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/debug/pprof/goroutine") {
			w.Write([]byte("goroutine 1 [semacquire]:\n"))
			return
		}
		<-release
	}))
	defer srv.Close()
	defer close(release)

	u, err := url.Parse("/api/plan")
	if err != nil {
		t.Fatal(err)
	}
	p := &serverProc{
		host: srv.Listener.Addr().String(), side: srv.URL,
		client:  &http.Client{Timeout: 100 * time.Millisecond},
		headers: []http.Header{{}},
	}
	out := t.TempDir()
	lr := &loadRun{
		p: p, wl: workloads[0], out: out, pos: []int{0},
		scripts: [][]entry{{{class: clPlan, method: "GET", path: "/api/plan", url: u}}},
	}
	_, err = lr.run(2 * time.Second)
	if !errors.Is(err, errHang) {
		t.Fatalf("run returned %v, want errHang", err)
	}
	dump, err := os.ReadFile(filepath.Join(out, "goroutines-browse.txt"))
	if err != nil || !strings.Contains(string(dump), "goroutine 1") {
		t.Fatalf("goroutine dump: %q, %v", dump, err)
	}
}
