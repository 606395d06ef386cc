package daemon

import (
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"envmon/internal/obs"
)

func listenTest(t *testing.T, h http.Handler, debug bool) *Server {
	t.Helper()
	cfg := Config{Name: "envtest", Addr: "127.0.0.1:0", Handler: h, Logf: t.Logf}
	if debug {
		reg := obs.NewRegistry()
		cfg.DebugAddr, cfg.Registry, cfg.Slow = "127.0.0.1:0", reg, obs.NewSlowLog(reg, time.Second, 4)
	}
	s, err := Listen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runTest starts s.Run and returns its cancel and a wait that fails the
// test if Run outlives the drain bound.
func runTest(t *testing.T, s *Server, closing func()) (cancel func(), wait func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx, closing) }()
	return cancel, func() error {
		select {
		case err := <-done:
			return err
		case <-time.After(drainTimeout + 2*time.Second):
			t.Fatal("Run did not return within the drain bound")
			return nil
		}
	}
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestRunServesThenReturnsNilOnCancel(t *testing.T) {
	h := NewHandler("envtest")
	h.HandleFunc("/hi", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("hi")) })
	s := listenTest(t, h, true)
	cancel, wait := runTest(t, s, nil)
	if code, body := getBody(t, "http://"+s.Addr()+"/hi"); code != 200 || body != "hi" {
		t.Errorf("API: %d %q", code, body)
	}
	// The debug listener carries the operator-only surface.
	dbg := "http://" + s.DebugAddr()
	if code, _ := getBody(t, dbg+"/metrics"); code != 200 {
		t.Errorf("debug /metrics: %d", code)
	}
	if code, body := getBody(t, dbg+"/debug/pprof/"); code != 200 || !strings.Contains(body, "profile") {
		t.Errorf("debug pprof index: %d", code)
	}
	if code, body := getBody(t, dbg+"/debug/slowops"); code != 200 || !strings.Contains(body, `"threshold_ns":1000000000`) {
		t.Errorf("debug slowops: %d %q", code, body)
	}
	cancel()
	if err := wait(); err != nil {
		t.Fatalf("Run = %v, want nil", err)
	}
	// Both listeners are closed once Run returns.
	for _, addr := range []string{s.Addr(), s.DebugAddr()} {
		if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			c.Close()
			t.Errorf("%s still accepts after Run returned", addr)
		}
	}
}

func TestListenErrorLeavesNothingBound(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	occupied := taken.Addr().String()
	if _, err := Listen(Config{Addr: occupied, Handler: NewHandler("envtest"), Logf: t.Logf}); err == nil {
		t.Error("Listen on an occupied API address succeeded")
	}
	// An occupied debug address fails Listen and releases the API port it
	// had already bound: the same port binds again right away.
	free, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	api := free.Addr().String()
	free.Close()
	_, err = Listen(Config{Addr: api, Handler: NewHandler("envtest"), Logf: t.Logf, DebugAddr: occupied})
	if err == nil || !strings.Contains(err.Error(), "-debug-addr") {
		t.Fatalf("Listen with an occupied debug address = %v", err)
	}
	again, err := net.Listen("tcp", api)
	if err != nil {
		t.Fatalf("API address still held after failed Listen: %v", err)
	}
	again.Close()
}

// TestRunSurfacesListenerError: when the API listener dies under the
// server, Run stops, still runs the closing hook, and returns the error.
func TestRunSurfacesListenerError(t *testing.T) {
	s := listenTest(t, NewHandler("envtest"), false)
	s.ln.Close()
	closed := false
	_, wait := runTest(t, s, func() { closed = true })
	if err := wait(); err == nil {
		t.Error("Run = nil after the listener failed")
	}
	if !closed {
		t.Error("closing hook not called")
	}
}

// TestRunDrainsInFlightAfterClosingHook: a request already being served
// when shutdown begins completes with its full body, and the closing hook
// runs while the listener still accepts — before Shutdown, not after.
func TestRunDrainsInFlightAfterClosingHook(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	h := NewHandler("envtest")
	h.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
		w.Write([]byte("finished"))
	})
	h.HandleFunc("/hi", func(w http.ResponseWriter, r *http.Request) {})
	s := listenTest(t, h, false)
	hookStatus := 0
	cancel, wait := runTest(t, s, func() {
		if resp, err := http.Get("http://" + s.Addr() + "/hi"); err == nil {
			hookStatus = resp.StatusCode
			resp.Body.Close()
		}
		close(release)
	})
	type result struct {
		code int
		body string
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + s.Addr() + "/slow")
		if err != nil {
			got <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		got <- result{resp.StatusCode, string(body), err}
	}()
	<-started
	cancel()
	if err := wait(); err != nil {
		t.Fatalf("Run = %v", err)
	}
	if r := <-got; r.err != nil || r.code != 200 || r.body != "finished" {
		t.Errorf("in-flight request = %+v, want 200 finished", r)
	}
	if hookStatus != 200 {
		t.Errorf("request from inside the closing hook got status %d: Shutdown began before the hook", hookStatus)
	}
}

// TestRunCutsOffPastDrainBound: a request that never finishes does not
// hold Run past the drain bound.
func TestRunCutsOffPastDrainBound(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the drain bound")
	}
	started, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	h := NewHandler("envtest")
	h.HandleFunc("/stuck", func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
	})
	s := listenTest(t, h, false)
	cancel, wait := runTest(t, s, nil)
	go func() {
		if resp, err := http.Get("http://" + s.Addr() + "/stuck"); err == nil {
			resp.Body.Close()
		}
	}()
	<-started
	begin := time.Now()
	cancel()
	if err := wait(); err != nil {
		t.Fatalf("Run = %v", err)
	}
	if d := time.Since(begin); d < drainTimeout {
		t.Errorf("Run returned after %v, before the %v drain bound", d, drainTimeout)
	}
}
