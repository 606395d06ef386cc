package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"envmon/internal/obs"
	"envmon/internal/telemetry"
	"envmon/internal/telemetry/client"
	"envmon/internal/telemetry/httpapi"
)

// TestDaemonObservabilitySurfaces runs a resilient daemon with every
// observability knob on and checks each surface end to end: /metrics on
// the API listener, /metrics + pprof + /debug/slowops on the debug
// listener, the access log, and envtop's summary over the scrape.
func TestDaemonObservabilitySurfaces(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	cfg := testConfig()
	cfg.resilient = true
	cfg.debugAddr = "127.0.0.1:0"
	cfg.accessLog = true
	cfg.slowOp = time.Nanosecond // everything observed is "slow"
	cfg.logf = func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, format)
		mu.Unlock()
	}

	d, err := newDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := startDaemon(ctx, d)
	defer func() {
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("run did not return after cancel")
		}
	}()

	c := client.New("http://" + d.Addr())
	waitSamples(t, c)
	// A query through the API populates the query stage and, with the
	// nanosecond threshold, the slow-op ring.
	if _, err := c.Query(context.Background(), httpapi.Request{Query: telemetry.Query{To: time.Second, Resolution: telemetry.Res60s}}); err != nil {
		t.Fatal(err)
	}

	snap, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := snap.Value("envmon_ingest_samples_total"); !ok || v <= 0 {
		t.Errorf("envmon_ingest_samples_total = %v, %v", v, ok)
	}
	if v, ok := snap.Value("envmon_uptime_seconds"); !ok || v <= 0 {
		t.Errorf("envmon_uptime_seconds = %v, %v", v, ok)
	}
	if v, ok := snap.Value("envmon_sim_now_seconds"); !ok || v <= 0 {
		t.Errorf("envmon_sim_now_seconds = %v, %v", v, ok)
	}
	if sum, n := snap.Sum("envmon_collect_polls_total"); n == 0 || sum <= 0 {
		t.Errorf("envmon_collect_polls_total: sum %v over %d samples", sum, n)
	}
	if sum, n := snap.Sum("envmon_breaker_sources"); n != 3 || sum <= 0 {
		t.Errorf("envmon_breaker_sources: sum %v over %d samples (want 3 states, >0 sources)", sum, n)
	}
	if v, ok := snap.Value(`envmon_pipeline_ops_total{stage="collect"}`); !ok || v <= 0 {
		t.Errorf("collect stage ops = %v, %v", v, ok)
	}
	if v, ok := snap.Value(`envmon_pipeline_ops_total{stage="resilience"}`); !ok || v <= 0 {
		t.Errorf("resilience stage ops = %v, %v", v, ok)
	}
	if v, ok := snap.Value(`envmon_pipeline_ops_total{stage="query"}`); !ok || v <= 0 {
		t.Errorf("query stage ops = %v, %v", v, ok)
	}
	if v, ok := snap.Value(`envmon_http_requests_total{endpoint="query"}`); !ok || v <= 0 {
		t.Errorf("http query requests = %v, %v", v, ok)
	}
	for family, labels := range map[string]string{"envmon_pipeline_seconds": `stage="query"`, "envmon_http_request_seconds": `endpoint="query"`} {
		if _, ok := snap.Quantile(family, labels, 0.5); !ok {
			t.Errorf("no %s_bucket{%s} histogram", family, labels)
		}
	}
	s := client.SummarizeObs(snap)
	if s.Samples <= 0 || s.Rate <= 0 {
		t.Errorf("summary = %+v", s)
	}

	// The debug listener serves the same exposition, pprof, and the
	// slow-op ring.
	dbg := "http://" + d.DebugAddr()
	body := httpGet(t, dbg+"/metrics")
	if !strings.Contains(body, "envmon_ingest_samples_total") {
		t.Errorf("debug /metrics missing ingest counter:\n%.400s", body)
	}
	if !strings.Contains(httpGet(t, dbg+"/debug/pprof/"), "profile") {
		t.Error("debug pprof index not served")
	}
	httpGet(t, dbg+"/debug/pprof/cmdline")
	var slow struct {
		ThresholdNS time.Duration `json:"threshold_ns"`
		Total       uint64        `json:"total"`
		Ops         []obs.SlowOp  `json:"ops"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, dbg+"/debug/slowops")), &slow); err != nil {
		t.Fatalf("/debug/slowops: %v", err)
	}
	if slow.ThresholdNS != time.Nanosecond {
		t.Errorf("slowops threshold = %v", slow.ThresholdNS)
	}
	if slow.Total == 0 || len(slow.Ops) == 0 {
		t.Errorf("slowops empty despite nanosecond threshold: %+v", slow)
	}

	// The access log saw requests.
	mu.Lock()
	defer mu.Unlock()
	accessed := false
	for _, l := range lines {
		if strings.Contains(l, "access") {
			accessed = true
		}
	}
	if !accessed {
		t.Errorf("no access-log lines among %d logged", len(lines))
	}
}

// TestDaemonMetricsPersistentFamilies checks that a daemon on a data
// directory exposes the WAL and block families.
func TestDaemonMetricsPersistentFamilies(t *testing.T) {
	cfg := testConfig()
	cfg.dataDir = t.TempDir()
	d, err := newDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := startDaemon(ctx, d)
	defer func() {
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("run did not return after cancel")
		}
	}()
	c := client.New("http://" + d.Addr())
	waitSamples(t, c)

	snap, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := snap.Value("envmon_wal_appended_bytes_total"); !ok || v <= 0 {
		t.Errorf("envmon_wal_appended_bytes_total = %v, %v", v, ok)
	}
	for _, name := range []string{"envmon_wal_live_bytes", "envmon_wal_mapped_segments_total", "envmon_wal_fallback_segments_total",
		"envmon_compactions_total", "envmon_block_files"} {
		if _, ok := snap.Value(name); !ok {
			t.Errorf("persistent daemon missing %s", name)
		}
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %.200s", url, resp.StatusCode, b)
	}
	return string(b)
}
