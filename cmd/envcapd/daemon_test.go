package main

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"envmon/internal/daemon/daemontest"
	"envmon/internal/powercap"
	"envmon/internal/telemetry"
	"envmon/internal/telemetry/httpapi"
)

func TestMain(m *testing.M) { daemontest.Main(m, main) }

// TestBinary runs envcapd as built: a command line it cannot run is
// refused with exit 2 and a message, never a panic (TestParseLadder holds
// the rest of the refusals); a good one serves the budget it was given,
// and SIGTERM drains it to exit 0. TestDaemonHoldsThenDegrades holds the
// control loop.
func TestBinary(t *testing.T) {
	tel := fakeTelemetry(t).URL
	daemontest.Refuses(t, "envcapd: interval 0s must be positive", "-telemetry", tel, "-budget", "500", "-interval", "0")
	daemontest.Refuses(t, "envcapd: powercap: budget NaN is not finite", "-telemetry", tel, "-budget", "NaN")
	daemontest.Refuses(t, "envcapd: -telemetry and a positive -budget are required", "-budget", "500")
	d := daemontest.Start(t, "-telemetry", tel, "-budget", "500")
	snap, err := d.Client.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := snap.Value("envcap_budget_watts"); v != 500 || !ok {
		t.Errorf("envcap_budget_watts = %v, %v; want the -budget 500 it was given", v, ok)
	}
	d.Stop(t)
}

// testConfig is the flag defaults watching telemetry from an ephemeral
// port, logging to the test.
func testConfig(t *testing.T, telemetry string) config {
	cfg := registerFlags(flag.NewFlagSet("envcapd", flag.ContinueOnError))
	cfg.listen, cfg.telemetry, cfg.logf = "127.0.0.1:0", telemetry, t.Logf
	return *cfg
}

// TestFlagSurface pins envcapd's flags: a flag added or removed shows up
// here as a diff. Each one is a deployment setting or has a test that
// shows what it changes (DESIGN §13, "Knobs").
func TestFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("envcapd", flag.ContinueOnError)
	registerFlags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{
		"budget", "deadline", "floor", "freshness", "interval", "ladder", "ladder-hold",
		"listen", "telemetry", "watchdog",
	}
	if !slices.Equal(got, want) {
		t.Errorf("flags = %q\nwant    %q", got, want)
	}
}

// fakeTelemetry serves a two-node fleet whose newest points sit just
// under the server's simulated now, so every query reads fresh.
func fakeTelemetry(t *testing.T) *httptest.Server {
	t.Helper()
	st := telemetry.New(telemetry.Options{Shards: 2})
	t.Cleanup(st.Close)
	for i, node := range []string{"n00", "n01"} {
		k := telemetry.SeriesKey{Node: node, Backend: "NVML", Domain: "Total Power"}
		for s := 1; s <= 9; s++ {
			if err := st.Ingest(k, "W", time.Duration(s)*time.Second, 100+10*float64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	srv := httptest.NewServer(httpapi.New(st, func() time.Duration { return 9500 * time.Millisecond }))
	t.Cleanup(srv.Close)
	return srv
}

func getJSON(t *testing.T, url string, doc any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(doc); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

func waitFor(t *testing.T, what string, deadline time.Duration, ok func() bool) {
	t.Helper()
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) {
		if ok() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestDaemonHoldsThenDegrades is the envcapd end-to-end: against a live
// telemetry endpoint the controller reads fresh and nominal; killing the
// endpoint mid-run walks the cap down the ladder to the floor within the
// watchdog schedule, with zero violation seconds throughout.
func TestDaemonHoldsThenDegrades(t *testing.T) {
	tel := fakeTelemetry(t)
	cfg := testConfig(t, tel.URL)
	cfg.budget, cfg.floor = 500, 100 // fleet reads 210 W: comfortably under
	// a watchdog, ladder and tick short enough to walk the whole ladder
	// inside the test's wait
	cfg.watchdog, cfg.ladderSpec, cfg.ladderHold = 300*time.Millisecond, "0.8,0.5", 150*time.Millisecond
	cfg.interval = 20 * time.Millisecond
	d, err := newCapDaemon(cfg)
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

	// Phase 1: fresh data, nominal mode, correct sum.
	var st powercap.Status
	waitFor(t, "nominal mode", 5*time.Second, func() bool {
		getJSON(t, base+"/healthz", &st)
		return st.Mode == "nominal" && st.Steps > 2
	})
	if st.MeasuredW != 210 {
		t.Errorf("measured = %v W, want 210", st.MeasuredW)
	}
	if st.Status != "ok" || st.CapW != 1000 || st.BudgetW != 500 {
		t.Errorf("status = %+v", st)
	}
	if st.LastDataAgeNS < 0 {
		t.Error("fresh daemon reports no data age")
	}

	// Phase 2: kill the telemetry plane. The daemon must degrade and walk
	// the cap to the floor on the ladder schedule.
	tel.Close()
	waitFor(t, "degraded at the floor", 5*time.Second, func() bool {
		getJSON(t, base+"/healthz", &st)
		return st.Status == "degraded" && st.Mode == "degraded" && st.CapW == 100
	})
	if st.Rung != 2 {
		t.Errorf("final rung = %d, want 2 (past the 2-rung ladder)", st.Rung)
	}
	if st.ViolationSeconds != 0 {
		t.Errorf("violation seconds = %v, want 0", st.ViolationSeconds)
	}

	// The decision log carries the whole degradation: stale, then each
	// rung, in order.
	resp, err := http.Get(base + "/decisions")
	if err != nil {
		t.Fatal(err)
	}
	csv, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "t_ns,mode,cap_w,measured_w,fresh,rung,reason\n") {
		t.Fatalf("decisions header missing: %.80s", csv)
	}
	for _, want := range []string{",nominal,", ",stale,", ",degraded,400,", ",degraded,250,", ",degraded,100,"} {
		if !strings.Contains(string(csv), want) {
			t.Errorf("decision log missing %q", want)
		}
	}

	// /metrics: violation counter exposed and still zero.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "envcap_budget_violation_seconds_total 0") {
		t.Errorf("metrics missing zero violation counter:\n%.400s", body)
	}
	if !strings.Contains(string(body), "envcap_mode 3") {
		t.Errorf("metrics missing degraded mode gauge")
	}
}

func TestParseLadder(t *testing.T) {
	got, err := parseLadder("0.9, 0.75,0.5")
	if err != nil || len(got) != 3 || got[0] != 0.9 || got[2] != 0.5 {
		t.Errorf("parseLadder = %v, %v", got, err)
	}
	if _, err := parseLadder("0.9,zebra"); err == nil {
		t.Error("bad ladder accepted")
	}
	if got, err := parseLadder(""); got != nil || err != nil {
		t.Errorf("empty ladder = %v, %v", got, err)
	}
	// A ladder the controller's validation refuses, a budget no actuator
	// can hold, and a loop that cannot tick are all refused before the
	// daemon starts (main exits 2 with the message).
	for name, breakIt := range map[string]func(*config){
		"ascending -ladder": func(c *config) { c.ladderSpec = "0.2,0.8" },
		"-ladder NaN":       func(c *config) { c.ladderSpec = "0.9,NaN" },
		"-budget NaN":       func(c *config) { c.budget = math.NaN() },
		"-budget +Inf":      func(c *config) { c.budget = math.Inf(1) },
		"-interval 0":       func(c *config) { c.interval = 0 },
		"-interval -1s":     func(c *config) { c.interval = -time.Second },
	} {
		cfg := testConfig(t, "http://x")
		cfg.budget = 100
		breakIt(&cfg)
		if _, err := newCapDaemon(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestDeadlineBeyondAnHourRefused: a query may ask for at most an hour
// (deadline_ms=3600000), so a -deadline past it would turn every observe
// into a 400 and walk the cap down the ladder; it is refused at startup,
// by name. Exactly an hour is accepted.
func TestDeadlineBeyondAnHourRefused(t *testing.T) {
	cfg := testConfig(t, "http://x")
	cfg.budget, cfg.deadline = 100, 2*time.Hour
	if _, err := newCapDaemon(cfg); err == nil || !strings.Contains(err.Error(), "-deadline 2h0m0s") {
		t.Errorf("-deadline 2h: error %v, want a refusal naming the flag", err)
	}
	cfg.deadline = time.Hour
	d, err := newCapDaemon(cfg)
	if err != nil {
		t.Fatalf("-deadline 1h refused: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // release the listener at once
	if err := d.run(ctx); err != nil {
		t.Errorf("run: %v", err)
	}
}
