package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"testing"
	"time"

	"envmon/internal/daemon/daemontest"
	"envmon/internal/telemetry"
	"envmon/internal/telemetry/client"
	"envmon/internal/telemetry/httpapi"
)

func TestMain(m *testing.M) { daemontest.Main(m, main) }

// TestBinary runs envmond as built, for what no in-process test reaches:
// the flags of a real command line, main, SIGTERM's drain to exit 0, and a
// restart on the same -data-dir that reports the recovery and serves the
// window from before it. TestRestartRecoversHistoryAndContinues holds the
// rest of the restart contract.
func TestBinary(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-nodes", "2", "-shards", "2", "-tick", "2ms", "-data-dir", dir}
	first := daemontest.Start(t, args...)
	waitSamples(t, first.Client)
	first.Stop(t)

	second := daemontest.Start(t, args...)
	h, err := second.Client.Health(context.Background())
	if err != nil || h.Storage == nil || h.Storage.DataDir != dir || h.Storage.RecoveredSeries == 0 {
		t.Fatalf("/healthz after the restart: %v %+v", err, h.Storage)
	}
	doc, err := second.Client.Query(context.Background(), httpapi.Request{Query: telemetry.Query{Domain: "Total Power", To: 2 * time.Second}})
	if err != nil || !slices.ContainsFunc(doc.Frames, func(f httpapi.Frame) bool { return len(f.TNS) > 0 }) {
		t.Fatalf("the window before the restart: %v, %d frames and no sample", err, len(doc.Frames))
	}
	second.Stop(t)
}

// queryFrames is every series' frames over [0, to) at res.
func queryFrames(c *client.Client, to time.Duration, res telemetry.Resolution) ([]httpapi.Frame, error) {
	doc, err := c.Query(context.Background(), httpapi.Request{Query: telemetry.Query{To: to, Resolution: res}})
	return doc.Frames, err
}

// testConfig is the flag defaults with a small, fast, quiet cluster on an
// ephemeral port; seed 1 is what TestBarrierFlushLeavesSetsEmpty's pins
// were read at.
func testConfig() config {
	cfg := registerFlags(flag.NewFlagSet("envmond", flag.ContinueOnError))
	cfg.listen = "127.0.0.1:0"
	cfg.nodes, cfg.shards, cfg.seed = 4, 2, 1
	cfg.tick = 2 * time.Millisecond
	cfg.logf = func(string, ...any) {}
	return *cfg
}

// startDaemon runs d in the background and returns a channel carrying
// run's error after shutdown.
func startDaemon(ctx context.Context, d *daemon) chan error {
	done := make(chan error, 1)
	go func() { done <- d.run(ctx) }()
	return done
}

// waitSamples polls /healthz until the store has ingested samples — proof
// the advance loop, the samplers, and the flush path are all live.
func waitSamples(t *testing.T, c *client.Client) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		h, err := c.Health(context.Background())
		if err == nil && h.Samples > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("daemon never ingested a sample")
}

// TestShutdownDuringIngestFlushesAndStopsCleanly cancels the daemon while
// it is actively ingesting: run must return within the grace deadline,
// every cursor must be drained (no staged sample lost), and every goroutine
// the daemon started must be gone.
func TestShutdownDuringIngestFlushesAndStopsCleanly(t *testing.T) {
	before := runtime.NumGoroutine()

	d, err := newDaemon(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := startDaemon(ctx, d)
	c := client.New("http://" + d.Addr())
	waitSamples(t, c)

	cancel() // SIGTERM analogue: signal.NotifyContext cancels this same way
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not return within the shutdown grace deadline")
	}

	// The final flush drained every staged sample into the store.
	for i, cur := range d.cursors {
		if p := cur.Pending(); p != 0 {
			t.Errorf("cursor %d holds %d unflushed samples after shutdown", i, p)
		}
	}
	if d.store.Samples() == 0 {
		t.Error("store empty after shutdown")
	}

	// Goroutine accounting, goleak-style: wait for the count to return to
	// the pre-daemon baseline (keep-alive and runtime goroutines get a
	// moment to wind down).
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after shutdown", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRestartRecoversHistoryAndContinues is the daemon-level durability
// check: run envmond with a data directory, shut it down mid-collection
// (the SIGTERM path), start a second daemon on the same directory, and
// require that (a) every frame served before the shutdown is still served
// byte-identically after the restart, (b) /healthz reports the recovery,
// and (c) ingest resumes past the recovered history rather than colliding
// with it.
func TestRestartRecoversHistoryAndContinues(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.dataDir = dir

	// First life: collect for a few epochs, snapshot what the API serves,
	// then shut down cleanly.
	d1, err := newDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	done1 := startDaemon(ctx1, d1)
	c1 := client.New("http://" + d1.Addr())
	waitSamples(t, c1)
	// Let a little history build so rollup buckets exist too.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		h, err := c1.Health(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if h.SimNowNS >= int64(3*cfg.epoch) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	cancel1()
	select {
	case err := <-done1:
		if err != nil {
			t.Fatalf("first run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("first run did not return after cancel")
	}
	// Second life: same data directory.
	before := map[telemetry.Resolution][]httpapi.Frame{}
	d2, err := newDaemon(cfg)
	if err != nil {
		t.Fatalf("reopening data dir: %v", err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	done2 := startDaemon(ctx2, d2)
	defer func() {
		cancel2()
		select {
		case <-done2:
		case <-time.After(5 * time.Second):
			t.Fatal("second run did not return after cancel")
		}
	}()
	c2 := client.New("http://" + d2.Addr())

	// (b) /healthz reports the recovery and the persistent tiers.
	h, err := c2.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Storage == nil {
		t.Fatal("restarted daemon reports no storage section on /healthz")
	}
	if h.Storage.DataDir != dir {
		t.Errorf("storage.data_dir = %q, want %q", h.Storage.DataDir, dir)
	}
	if h.Storage.Blocks == 0 {
		t.Error("no blocks after a clean shutdown (final Flush should have sealed the tail)")
	}
	if h.Storage.RecoveredSeries == 0 {
		t.Error("restart recovered no series")
	}
	if h.Storage.LostRecords != 0 {
		t.Errorf("restart lost %d journaled records", h.Storage.LostRecords)
	}
	if want := d2.store.StorageStats().WALMapped; h.Storage.WALMapped != want {
		t.Errorf("storage.wal_mapped = %v, the store says %v", h.Storage.WALMapped, want)
	}
	if h.Samples == 0 {
		t.Error("restarted store is empty")
	}
	preSamples := h.Samples

	// (a) The recovered history is served and stays immutable: every new
	// sample lands at or past the restart offset, so frames over
	// [0, offset) must not change as the second life ingests. That holds
	// for raw points, gaps, and 1s buckets (the offset is epoch-aligned,
	// so every 1s bucket below it is sealed); 10s/60s tail buckets
	// straddle the offset by design — rollup continuity — and keep
	// accumulating, so those are checked for presence only.
	preWindow := d2.offset
	if preWindow == 0 {
		t.Fatal("restarted daemon has no offset: nothing was recovered")
	}
	for _, res := range []telemetry.Resolution{telemetry.Raw, telemetry.Res1s} {
		frames, err := queryFrames(c2, preWindow, res)
		if err != nil {
			t.Fatal(err)
		}
		if len(frames) == 0 {
			t.Fatalf("no %s frames over the recovered window", res)
		}
		before[res] = frames
	}
	for _, res := range []telemetry.Resolution{telemetry.Res10s, telemetry.Res60s} {
		frames, err := queryFrames(c2, preWindow, res)
		if err != nil {
			t.Fatal(err)
		}
		if len(frames) == 0 {
			t.Fatalf("no %s frames over the recovered window", res)
		}
	}

	// (c) Ingest continues past the restart: wait for the sample counter to
	// move beyond what was recovered.
	deadline = time.Now().Add(10 * time.Second)
	for {
		h, err := c2.Health(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if h.Samples > preSamples {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("restarted daemon never ingested a new sample")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The pre-restart window still serves the exact same frames. Series
	// born in the second life (the short first run may not have reached,
	// e.g., the envdb drain interval) also show up in the frame list, but
	// their windowed frames must be empty — their first sample is at or
	// past the offset.
	for _, res := range []telemetry.Resolution{telemetry.Raw, telemetry.Res1s} {
		frames, err := queryFrames(c2, preWindow, res)
		if err != nil {
			t.Fatal(err)
		}
		old := map[string]string{}
		for _, f := range before[res] {
			old[f.Node+"/"+f.Backend+"/"+f.Domain] = frameText(f)
		}
		seen := 0
		for _, f := range frames {
			want, ok := old[f.Node+"/"+f.Backend+"/"+f.Domain]
			if !ok {
				if len(f.TNS) != 0 || len(f.GapsNS) != 0 {
					t.Errorf("new series %s/%s/%s has %s data inside the recovered window",
						f.Node, f.Backend, f.Domain, res)
				}
				continue
			}
			seen++
			if got := frameText(f); got != want {
				t.Errorf("recovered %s frame for %s/%s/%s changed after new ingest:\n  before: %.300s\n  after:  %.300s",
					res, f.Node, f.Backend, f.Domain, want, got)
			}
		}
		if seen != len(before[res]) {
			t.Errorf("%d of %d recovered %s frames disappeared after new ingest", len(before[res])-seen, len(before[res]), res)
		}
	}
}

// TestHealthzReportsBreakersUnderFaults drives the daemon with resilience
// chains and a fault plan that permanently kills the Phi in-band API:
// /healthz must flip to "degraded" and name the open breaker, while the
// MICRAS fallback keeps Total Power flowing.
func TestHealthzReportsBreakersUnderFaults(t *testing.T) {
	cfg := testConfig()
	cfg.resilient = true
	cfg.faultSpec = "lose=SysMgmt API#*@3s"
	d, err := newDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := startDaemon(ctx, d)
	c := client.New("http://" + d.Addr())
	waitSamples(t, c)

	var sawOpen bool
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && !sawOpen {
		h, err := c.Health(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if h.Faults == "" {
			t.Fatal("active fault plan missing from /healthz")
		}
		for _, b := range h.Backends {
			for _, src := range b.Sources {
				if src.Method == "SysMgmt API" && src.State == "open" {
					sawOpen = true
					if h.Status != "degraded" {
						t.Errorf("status = %q with an open breaker, want degraded", h.Status)
					}
				}
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !sawOpen {
		t.Fatal("breaker never reported open on /healthz")
	}

	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("run did not return after cancel")
	}
}

// frameText spells a frame for comparison, its bucket columns by value.
func frameText(f httpapi.Frame) string {
	if f.Buckets == nil {
		return fmt.Sprintf("%+v", f)
	}
	b := *f.Buckets
	f.Buckets = nil
	return fmt.Sprintf("%+v %+v", f, b)
}
