package cluster

import (
	"bytes"
	"io"
	"os"
	"strconv"
	"testing"
	"time"

	"envmon/internal/core"
	"envmon/internal/faults"
	"envmon/internal/resilience"
	"envmon/internal/telemetry"
)

// chaosPlan is the acceptance scenario: 10% transient read errors on every
// backend plus one NVML device permanently lost mid-run.
func chaosPlan(seed uint64) faults.Plan {
	return faults.Plan{
		Seed:      seed,
		Transient: 0.10,
		Lose: []faults.Loss{
			{Method: "NVML", Instance: 17, At: 10 * time.Second}, // Until 0: permanent
		},
	}
}

// chaosRun drives a 128-node GPU cluster under the chaos plan on the given
// shard/worker geometry and returns the concatenated per-node CSV plus the
// populated telemetry store.
func chaosRun(t *testing.T, seed uint64, shards, workers int) ([]byte, *telemetry.Store) {
	t.Helper()
	c, err := NewGPUCluster(128, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	store := telemetry.New(telemetry.Options{})
	d := c.Domains(shards)
	bufs := make([]bytes.Buffer, len(c.Nodes))
	job, err := d.StartJob(DomainJobConfig{
		Registry:   faults.Decorate(core.DefaultRegistry, chaosPlan(seed)),
		Interval:   500 * time.Millisecond,
		Resilience: &resilience.Policy{},
		Output:     func(i int) io.Writer { return &bufs[i] },
	})
	if err != nil {
		t.Fatal(err)
	}
	d.AdvanceEpochs(30*time.Second, time.Second, workers, nil)
	if _, err := job.FinalizeAll(); err != nil {
		t.Fatal(err)
	}
	for _, m := range job.Monitors() {
		if err := telemetry.NewSetCursor(store, m.Node(), m.Set()).Flush(); err != nil {
			t.Fatal(err)
		}
	}
	var all bytes.Buffer
	for i := range bufs {
		all.Write(bufs[i].Bytes())
	}
	return all.Bytes(), store
}

// TestChaosRunDeterministicAndGapAware is the PR's acceptance scenario on a
// 128-node sharded run: under a seeded plan of 10% transient errors plus a
// permanent NVML device loss, the lost device's series shows explicit gaps
// (never zero-valued samples), and the run replays byte-identically across
// repeated runs and across shard/worker geometries.
func TestChaosRunDeterministicAndGapAware(t *testing.T) {
	if testing.Short() {
		t.Skip("128-node chaos integration; skipped in -short")
	}
	seed := uint64(1337)
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", s, err)
		}
		seed = v
	}
	csv1, store := chaosRun(t, seed, 8, 4)

	// The lost device: gpu0017 stops answering at 10s forever. Its Total
	// Power series must carry samples before the loss, then gaps — and no
	// zero-valued point anywhere.
	frames := store.Query(telemetry.Query{
		Node: "gpu0017", Backend: "NVML", Domain: "Total Power",
	})
	if len(frames) != 1 {
		t.Fatalf("lost device frames = %d, want 1 (the series must exist)", len(frames))
	}
	f := frames[0]
	if len(f.Gaps) == 0 {
		t.Fatal("lost device series has no gap markers")
	}
	var afterLoss int
	for _, p := range f.Points {
		if p.Mean == 0 {
			t.Fatalf("zero-valued sample at %v: missing data must be a gap, not a zero", p.T)
		}
		if p.T >= 10*time.Second+time.Second {
			afterLoss++
		}
	}
	if afterLoss != 0 {
		t.Errorf("%d samples after the device was lost", afterLoss)
	}
	for _, g := range f.Gaps {
		if g < 10*time.Second {
			t.Errorf("gap at %v precedes the loss", g)
		}
	}
	// A healthy neighbor has samples and, thanks to retries absorbing the
	// transient errors, its gaps (if any) stay rare.
	healthy := store.Query(telemetry.Query{Node: "gpu0016", Backend: "NVML", Domain: "Total Power"})
	if len(healthy) != 1 || len(healthy[0].Points) == 0 {
		t.Fatal("healthy neighbor lost its series")
	}
	if g, p := len(healthy[0].Gaps), len(healthy[0].Points); g*10 > p {
		t.Errorf("healthy node gaps = %d of %d polls; retries are not absorbing transients", g, p)
	}
	if store.Gaps() == 0 {
		t.Error("store recorded no gaps at all")
	}

	// Determinism: same seed, same geometry → byte-identical CSV.
	csv2, _ := chaosRun(t, seed, 8, 4)
	if !bytes.Equal(csv1, csv2) {
		t.Error("two runs with the same seed differ")
	}
	// And across shard/worker geometry.
	for _, g := range []struct{ shards, workers int }{{1, 1}, {32, 8}} {
		got, _ := chaosRun(t, seed, g.shards, g.workers)
		if !bytes.Equal(got, csv1) {
			t.Errorf("shards=%d workers=%d: CSV differs from the 8x4 run", g.shards, g.workers)
		}
	}
	// A different seed must actually change the draw (the plan is live).
	other, _ := chaosRun(t, seed+1, 8, 4)
	if bytes.Equal(other, csv1) {
		t.Error("different seed produced identical output; injection looks inert")
	}
}
