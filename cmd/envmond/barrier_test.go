package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"envmon/internal/envdb"
	"envmon/internal/telemetry/client"
)

// stop shuts a daemon that was stepped by hand: run on an already
// cancelled context skips the advance loop and goes straight to the final
// flush, the store close and the listener close.
func stop(t *testing.T, d *daemon) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := d.run(ctx); err != nil {
		t.Errorf("run on a cancelled context returned %v", err)
	}
}

// TestBarrierFlushLeavesSetsEmpty is the bounded hand-off, pinned: the
// daemon's own barrier loop, stepped for N and 4N epochs on a memory-only
// store, leaves every monitor's set holding zero samples and zero gap
// markers after each flush — a set is at most one epoch deep however long
// the daemon runs — while what reaches the store and what /query serves
// for a fixed window are exactly what the retaining hand-off produced
// (the constants were read at 841c486 by running this test, minus the
// emptiness check, against that commit's telemetry package: same config,
// same seed, same at GOMAXPROCS=1).
func TestBarrierFlushLeavesSetsEmpty(t *testing.T) {
	const n = 30
	pins := map[int]struct {
		samples uint64
		query   string
	}{
		n:     {82969, "8c0fd0b899d1d8ca8447b09dcad03f38b2ed026651fd9cf5197bb179bf495242"},
		4 * n: {331803, "ba9ca97d7986ffb52f144d7c349e9d62570710fb85a6562c6b940af13a6ec586"},
	}
	for _, epochs := range []int{n, 4 * n} {
		t.Run(fmt.Sprintf("%d_epochs", epochs), func(t *testing.T) {
			cfg := testConfig()
			// Failed polls without a resilience chain leave gap markers on
			// the sets, so the gap half of the hand-off is exercised too.
			cfg.faultSpec = "transient=0.05"
			d, err := newDaemon(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer stop(t, d)
			for e := 0; e < epochs; e++ {
				d.step()
				for _, m := range d.job.Monitors() {
					for _, s := range m.Set().Series {
						if len(s.Samples) != 0 || len(s.Gaps) != 0 {
							t.Fatalf("epoch %d: %s %s still holds %d samples and %d gap markers after the flush",
								e, m.Node(), s.Name, len(s.Samples), len(s.Gaps))
						}
					}
				}
			}
			want := pins[epochs]
			if got := d.store.Samples(); got != want.samples {
				t.Errorf("store.Samples() = %d, want %d", got, want.samples)
			}
			rec := httptest.NewRecorder()
			d.api.ServeHTTP(rec, httptest.NewRequest("GET", "/query?from=5s&to=25s&res=raw", nil))
			if rec.Code != 200 {
				t.Fatalf("/query answered %d: %s", rec.Code, rec.Body.String())
			}
			if !strings.Contains(rec.Body.String(), `"gaps_ns":[`) {
				t.Error("no gap marker reached the store; the fault plan no longer exercises the gap hand-off")
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(rec.Body.Bytes())); got != want.query {
				t.Errorf("/query bytes hash to %s, want %s", got, want.query)
			}
		})
	}
}

// TestBridgeCountersOnMetrics scrapes /metrics while the advance loop runs
// (under -race this is the check that the bridge's counters are safe to
// read from an HTTP goroutine mid-drain) until the bridge has moved
// records, and requires all three bridge families on the page.
func TestBridgeCountersOnMetrics(t *testing.T) {
	cfg := testConfig()
	cfg.nodes, cfg.shards = 1, 1 // a small cluster: the bridge is the subject
	cfg.epoch = 30 * time.Second
	cfg.envdbIvl = envdb.MinPollInterval
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
	deadline := time.Now().Add(30 * time.Second) // two drain intervals of simulation, slow under -race
	for {
		snap, err := c.Metrics(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		moved, ok := snap.Value("envmon_envdb_bridge_moved_total")
		if !ok {
			t.Fatal("envmon_envdb_bridge_moved_total missing from /metrics")
		}
		if moved > 0 {
			for _, name := range []string{"envmon_envdb_bridge_dropped_total", "envmon_envdb_bridge_pending"} {
				if v, ok := snap.Value(name); !ok || v != 0 {
					t.Errorf("%s = %v, %v on a healthy store, want 0", name, v, ok)
				}
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("bridge never moved a record")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestStalledBridgeIsLoggedOnce: behind a store that rejects every ingest
// the bridge parks what it scans; the barrier says so once per distinct
// cause, not once per epoch, and the backlog shows on the pending gauge.
func TestStalledBridgeIsLoggedOnce(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	cfg := testConfig()
	cfg.nodes, cfg.shards = 1, 1 // a small cluster: the bridge is the subject
	cfg.epoch = 30 * time.Second
	cfg.envdbIvl = envdb.MinPollInterval
	cfg.logf = func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	d, err := newDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer stop(t, d)
	d.store.Close()
	for e := 0; e < 6; e++ { // three drains: nothing yet, first batch parked, still parked
		d.step()
	}
	bridgeLines := 0
	for _, l := range lines {
		if strings.Contains(l, "envdb bridge") {
			bridgeLines++
		}
	}
	if bridgeLines != 1 {
		t.Errorf("%d bridge lines logged over 6 barriers, want 1:\n%s", bridgeLines, strings.Join(lines, "\n"))
	}
	var page strings.Builder
	if err := d.reg.WriteText(&page); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(page.String(), "envmon_envdb_bridge_pending 0\n") || !strings.Contains(page.String(), "envmon_envdb_bridge_pending ") {
		t.Errorf("pending gauge does not show the backlog:\n%s", page.String())
	}
}
