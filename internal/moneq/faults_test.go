package moneq

import (
	"testing"
	"time"

	"envmon/internal/bgq"
	"envmon/internal/core"
	"envmon/internal/nvml"
	"envmon/internal/simclock"
	"envmon/internal/workload"
)

// TestGPULostMidRun injects the NVML_ERROR_GPU_IS_LOST fault halfway
// through a profiling run: MonEQ must keep polling (and keep the
// application alive), record the failure, and resume cleanly when the
// device recovers.
func TestGPULostMidRun(t *testing.T) {
	clock := simclock.New()
	dev := nvml.NewDevice(nvml.K20Spec(), 0, 3)
	dev.Run(workload.NoopKernel(time.Minute), 0)
	lib := nvml.NewLibrary(dev)
	lib.Init()
	col, err := nvml.NewCollector(lib, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Initialize(Config{Clock: clock, Interval: 100 * time.Millisecond, Node: "gpu0"}, col)
	if err != nil {
		t.Fatal(err)
	}

	clock.Advance(10 * time.Second) // healthy
	dev.SetLost(true)
	clock.Advance(5 * time.Second) // lost: every poll fails
	dev.SetLost(false)
	clock.Advance(10 * time.Second) // recovered

	rep, err := m.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Polls != 250 {
		t.Errorf("Polls = %d, want 250 (polling must continue through the fault)", rep.Polls)
	}
	if _, ok := m.Set().Meta["error/NVML"]; !ok {
		t.Error("GPU-lost failure not recorded in metadata")
	}
	s := m.Series("NVML", core.Capability{Component: core.Total, Metric: core.Power})
	// 100 healthy + 100 recovered polls produced samples; 50 lost did not.
	if s.Len() != 200 {
		t.Errorf("power samples = %d, want 200 (gap during the fault)", s.Len())
	}
	// The gap is visible in the timeline: no samples in (10s, 15s].
	gap := s.Clip(10*time.Second+time.Millisecond, 15*time.Second+time.Millisecond)
	if gap.Len() != 0 {
		t.Errorf("%d samples recorded while the GPU was lost", gap.Len())
	}
}

// TestFullMiraScale runs MonEQ on every node card of a 48-rack Mira for a
// short window — the paper: "it can easily scale to a full system run on
// Mira (49,152 compute nodes)".
func TestFullMiraScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-machine integration; skipped in -short")
	}
	clock := simclock.New()
	machine := bgq.New(bgq.Config{Racks: bgq.MiraRacks, Seed: 7})
	machine.Run(workload.MMPS(time.Minute), 0) // whole machine
	cards := machine.NodeCards()
	if len(cards) != 1536 {
		t.Fatalf("cards = %d", len(cards))
	}
	monitors := make([]*Monitor, len(cards))
	for i, card := range cards {
		m, err := Initialize(Config{
			Clock: clock, Node: card.Name(),
			Rank: i * bgq.NodesPerBoard, NumTasks: machine.Nodes(),
		}, card.EMON())
		if err != nil {
			t.Fatal(err)
		}
		monitors[i] = m
	}
	clock.Advance(30 * time.Second)
	var totalSamples int
	for _, m := range monitors {
		rep, err := m.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		totalSamples += rep.Samples
	}
	// 1536 cards x 53 polls x 22 readings
	want := 1536 * int(30*time.Second/bgq.EMONGeneration) * 22
	if totalSamples != want {
		t.Errorf("total samples = %d, want %d", totalSamples, want)
	}
}

// TestDriverUnloadMidRun unplugs the msr driver under a running RAPL
// profile — wait, an open file descriptor survives an rmmod attempt on
// real Linux (the module refuses to unload while in use); our model keeps
// the open Device handle working, which is the analogous behavior.
func TestOpenHandleSurvivesConfigChanges(t *testing.T) {
	// covered in internal/msr tests for the driver lifecycle; here we only
	// assert the MonEQ-visible invariant that an in-flight run keeps its
	// collector.
	clock := simclock.New()
	fake := newFake()
	m, err := Initialize(Config{Clock: clock}, fake)
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Second)
	if _, err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	if fake.calls != 20 {
		t.Errorf("calls = %d", fake.calls)
	}
}
