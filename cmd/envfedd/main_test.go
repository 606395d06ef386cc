package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"envmon/internal/telemetry"
	"envmon/internal/telemetry/httpapi"
)

// testConfig is the flag defaults on an ephemeral port, logging to the
// test; membersSpec is left to the test.
func testConfig(t *testing.T) config {
	cfg := registerFlags(flag.NewFlagSet("envfedd", flag.ContinueOnError))
	cfg.listen, cfg.logf = "127.0.0.1:0", t.Logf
	return *cfg
}

// TestFlagSurface pins envfedd's flags: a flag added or removed shows up
// here as a diff. Each one is a deployment setting or has a test that
// shows what it changes (DESIGN §13, "Knobs").
func TestFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("envfedd", flag.ContinueOnError)
	registerFlags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{"access-log", "deadline", "listen", "member-deadline", "members", "retries"}
	if !slices.Equal(got, want) {
		t.Errorf("flags = %q\nwant    %q", got, want)
	}
}

// startMember spins one envmond-equivalent member (httpapi over an
// in-memory store) holding the given nodes.
func startMember(t *testing.T, nodes ...string) *httptest.Server {
	t.Helper()
	st := telemetry.New(telemetry.Options{Shards: 2, RawCapacity: 8})
	t.Cleanup(st.Close)
	for _, n := range nodes {
		key := telemetry.SeriesKey{Node: n, Backend: "rack", Domain: "Total Power"}
		for s := 1; s <= 3; s++ {
			if err := st.Ingest(key, "W", time.Duration(s)*time.Second, 100); err != nil {
				t.Fatal(err)
			}
		}
	}
	ts := httptest.NewServer(httpapi.New(st, func() time.Duration { return 4 * time.Second }))
	t.Cleanup(ts.Close)
	return ts
}

func TestEnvfeddEndToEnd(t *testing.T) {
	m0 := startMember(t, "alpha", "gamma")
	m1 := startMember(t, "beta")
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	var mu sync.Mutex
	var access []string
	cfg := testConfig(t)
	cfg.membersSpec = fmt.Sprintf("rack0=%s,rack1=%s,rack2=%s", m0.URL, m1.URL, deadURL)
	cfg.retries = 0 // the dead rack fails on its first call
	cfg.accessLog = true
	cfg.logf = func(format string, args ...any) {
		if line := fmt.Sprintf(format, args...); strings.Contains(line, " access ") {
			mu.Lock()
			access = append(access, line)
			mu.Unlock()
		}
	}
	d, err := newFedDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.run(ctx) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("run: %v", err)
		}
	}()
	base := "http://" + d.Addr()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	// /topk merges the live racks and reports the dead one.
	status, body := get("/topk?k=10")
	if status != http.StatusOK {
		t.Fatalf("topk status %d: %s", status, body)
	}
	var topk httpapi.TopKResult
	if err := json.Unmarshal(body, &topk); err != nil {
		t.Fatal(err)
	}
	if len(topk.Nodes) != 3 {
		t.Fatalf("want alpha+beta+gamma ranked, got %+v", topk.Nodes)
	}
	if topk.Degraded == nil || len(topk.Degraded.Missing) != 1 || topk.Degraded.Missing[0].Member != "rack2" {
		t.Fatalf("dead rack not reported: %+v", topk.Degraded)
	}

	// /query for one node routes through the federation unchanged.
	status, body = get("/query?node=beta")
	if status != http.StatusOK {
		t.Fatalf("query status %d: %s", status, body)
	}
	var q httpapi.QueryResult
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	if len(q.Frames) != 1 || q.Frames[0].Node != "beta" {
		t.Fatalf("query frames: %s", body)
	}

	// /healthz is degraded (rack2 dark) but sums the live counters.
	status, body = get("/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz status %d", status)
	}
	var h httpapi.Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || h.Series != 3 || h.Samples != 9 {
		t.Fatalf("federated health: %s", body)
	}
	if h.Federation == nil || h.Federation.Members != 3 || h.Federation.Healthy != 2 {
		t.Fatalf("federation section: %s", body)
	}

	// /members names all three racks in config order.
	status, body = get("/members")
	if status != http.StatusOK {
		t.Fatalf("members status %d", status)
	}
	var mr httpapi.MembersResult
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if len(mr.Members) != 3 || mr.Members[0].Name != "rack0" || mr.Members[2].Name != "rack2" {
		t.Fatalf("members: %s", body)
	}

	// /metrics exposes the federation tier's own counters.
	status, body = get("/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics status %d", status)
	}
	for _, want := range []string{
		"envfed_partial_responses_total",
		"envfed_member_request_seconds",
		"envfed_members_configured 3",
		"envfed_http_requests_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}

	// -access-log wrote one line per request, status and path included.
	mu.Lock()
	defer mu.Unlock()
	if !slices.ContainsFunc(access, func(l string) bool { return strings.Contains(l, "access GET /topk 200 ") }) {
		t.Errorf("no access-log line for GET /topk among %q", access)
	}
}

func TestEnvfeddRejectsBadConfig(t *testing.T) {
	cfg := testConfig(t)
	cfg.membersSpec = " , "
	if _, err := newFedDaemon(cfg); err == nil {
		t.Fatal("empty member spec must fail")
	}
	cfg.membersSpec = "a=http://x:1,a=http://y:2"
	if _, err := newFedDaemon(cfg); err == nil {
		t.Fatal("duplicate member names must fail")
	}
}
