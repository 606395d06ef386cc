package main

import (
	"flag"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"envmon/internal/telemetry"
)

// TestFlagSurface pins envmond's flags: a flag added or removed shows up
// here as a diff. Each one is a deployment setting or has a test that
// shows what it changes (DESIGN §13, "Knobs").
func TestFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("envmond", flag.ContinueOnError)
	registerFlags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{
		"access-log", "data-dir", "debug-addr", "envdb-interval", "epoch", "faults", "interval",
		"listen", "nodes", "resilience", "seed", "shards", "slow-op", "tick",
	}
	if !slices.Equal(got, want) {
		t.Errorf("flags = %q\nwant    %q", got, want)
	}
}

// stepped builds a daemon from cfg, steps it epochs barriers by hand and
// returns every MonEQ series' raw frame (the BG/Q bridge's series poll on
// -envdb-interval instead); the daemon is stopped when the test ends.
func stepped(t *testing.T, cfg config, epochs int) []telemetry.Frame {
	t.Helper()
	d, err := newDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stop(t, d) })
	for e := 0; e < epochs; e++ {
		d.step()
	}
	var out []telemetry.Frame
	for _, f := range d.store.Query(telemetry.Query{}) {
		if f.Key.Backend != "envdb" {
			out = append(out, f)
		}
	}
	if len(out) == 0 {
		t.Fatal("no MonEQ series reached the store")
	}
	return out
}

// TestIntervalFlagSpacesSamples: -interval 0 polls each mechanism at its
// own hardware minimum (50 ms for the Phi's SMC, 60 ms for RAPL); a larger
// -interval spaces the samples of every series by exactly the flag.
func TestIntervalFlagSpacesSamples(t *testing.T) {
	for _, tc := range []struct {
		interval time.Duration
		want     []time.Duration
	}{
		{0, []time.Duration{50 * time.Millisecond, 60 * time.Millisecond}},
		{200 * time.Millisecond, []time.Duration{200 * time.Millisecond}},
		{time.Second, []time.Duration{time.Second}},
	} {
		t.Run(fmt.Sprint(tc.interval), func(t *testing.T) {
			cfg := testConfig()
			cfg.interval = tc.interval
			var got []time.Duration
			for _, f := range stepped(t, cfg, 3) {
				for i := 1; i < len(f.Points); i++ {
					// a node's two sockets poll into one MSR series, so its
					// points come in same-instant pairs
					if d := f.Points[i].T - f.Points[i-1].T; d != 0 && !slices.Contains(got, d) {
						got = append(got, d)
					}
				}
			}
			slices.Sort(got)
			if !slices.Equal(got, tc.want) {
				t.Errorf("-interval %v: sample spacings %v, want %v", tc.interval, got, tc.want)
			}
		})
	}
}

// TestSeedFlagPlacesGaps: under a transient fault plan the seed decides
// which polls fail — the same seed twice puts the gap markers at the same
// instants, another seed elsewhere.
func TestSeedFlagPlacesGaps(t *testing.T) {
	gaps := func(seed uint64) string {
		cfg := testConfig()
		cfg.seed = seed
		cfg.faultSpec = "transient=0.1"
		var b strings.Builder
		n := 0
		for _, f := range stepped(t, cfg, 3) {
			fmt.Fprintf(&b, "%v %v\n", f.Key, f.Gaps)
			n += len(f.Gaps)
		}
		if n == 0 {
			t.Fatalf("seed %d: no gap markers under transient=0.1", seed)
		}
		return b.String()
	}
	a, again, other := gaps(1), gaps(1), gaps(2)
	if a != again {
		t.Error("one seed run twice placed the gaps differently")
	}
	if a == other {
		t.Error("seeds 1 and 2 placed the gaps identically")
	}
}
