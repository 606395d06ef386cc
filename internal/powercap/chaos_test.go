package powercap

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"envmon/internal/cluster"
	"envmon/internal/core"
	"envmon/internal/faults"
	"envmon/internal/resilience"
	"envmon/internal/telemetry"
	"envmon/internal/workload"
)

// capPlan is the acceptance fault plan: 10% transient read errors on
// every backend, occasional stuck-sensor windows (stale values with
// their original timestamps), and one NVML device permanently lost
// mid-run.
func capPlan(seed uint64) faults.Plan {
	return faults.Plan{
		Seed:      seed,
		Transient: 0.10,
		Stuck:     0.02,
		StuckFor:  2 * time.Second,
		Lose: []faults.Loss{
			{Method: "NVML", Instance: 17, At: 20 * time.Second}, // Until 0: permanent
		},
	}
}

// capConfig is the acceptance controller: a budget well under the
// ~15 kW an uncapped 128-node busy K20 fleet draws, so the loop has to
// actually cap. MaxW sits just above the fleet's duty-1 envelope
// (128 nodes × ~120 W busy), so the ceiling really means "uncapped".
func capConfig() Config {
	return Config{
		BudgetW:     9000,
		FloorW:      3000,
		MaxW:        16000,
		ToleranceW:  800,
		DeadbandW:   300,
		Gain:        1.0,
		SlewW:       2500,
		Freshness:   3 * time.Second,
		RecoverHold: 5 * time.Second,
		Watchdog:    6 * time.Second,
		Ladder:      []float64{0.8, 0.6},
		LadderHold:  4 * time.Second,
	}
}

const (
	capNodes  = 128
	capTotal  = 60 * time.Second
	capEpoch  = time.Second
	capCutoff = 30 * time.Second // feed-cut instant for the watchdog run
)

type capRunOut struct {
	csv        []byte
	ctrl       *Controller
	gate       *Gate
	finalPower float64 // true fleet NVML watts at the end of the run
}

// capRun drives the full closed loop on a 128-node GPU fleet under the
// fault plan at the given shard/worker geometry: collectors poll under
// faults, cursors flush into the store at every epoch barrier, the
// controller observes, actuates duty-cycle caps, and the gate admits a
// bursty storm of queued jobs. cutFeed, when positive, stops the cursor
// flushes at that instant — the "telemetry plane died" scenario.
func capRun(t *testing.T, seed uint64, shards, workers int, cutFeed time.Duration) capRunOut {
	t.Helper()
	c, err := cluster.NewGPUCluster(capNodes, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	store := telemetry.New(telemetry.Options{})
	defer store.Close()
	d := c.Domains(shards)
	job, err := d.StartJob(cluster.DomainJobConfig{
		Registry:   faults.Decorate(core.DefaultRegistry, capPlan(seed)),
		Interval:   500 * time.Millisecond,
		Resilience: &resilience.Policy{},
	})
	if err != nil {
		t.Fatal(err)
	}
	cursors := make([]*telemetry.SetCursor, len(job.Monitors()))
	for i, m := range job.Monitors() {
		cursors[i] = telemetry.NewSetCursor(store, m.Node(), m.Set())
	}

	ctrl, err := New(capConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The K20 measures ~44 W idle and ~120 W flat out; reservations hold
	// long enough to cover the board's power-ramp lag, so a burst cannot
	// overrun the budget between admission and the power becoming visible.
	act := &ClusterActuator{Cluster: c, IdleW: 44, NodeMaxW: 120}
	gate := &Gate{BudgetW: ctrl.Config().BudgetW, ReserveW: 100, ReserveFor: 15 * time.Second}
	src := StoreSource{Store: store, Window: 3 * time.Second}

	// The admission storm: three bursts of jobs, every one routed through
	// the gate. Job k lands on node k mod capNodes when admitted. (Epoch
	// barriers fire from the first epoch on, so the earliest burst is 1s.)
	burst := map[time.Duration]int{capEpoch: 48, 10 * time.Second: 48, 25 * time.Second: 32}
	jobID := 0
	enqueue := func(n int) {
		for i := 0; i < n; i++ {
			k := jobID
			jobID++
			// Host-generate phases of varying length keep a same-epoch
			// batch from marching into the high-power device-compute
			// phase in lockstep — job mixes are heterogeneous, and a
			// synchronized phase jump would outrun any 1 Hz controller.
			gen := time.Duration(1+k%16) * time.Second
			gate.Enqueue(QueuedJob{
				Name: fmt.Sprintf("job%04d", k),
				Start: func(now time.Duration) {
					c.Nodes[k%capNodes].Run(workload.VectorAdd(gen, 10*time.Minute), now)
				},
			})
		}
	}

	d.AdvanceEpochs(capTotal, capEpoch, workers, func(now time.Duration) {
		if cutFeed <= 0 || now < cutFeed {
			for _, cur := range cursors {
				if err := cur.Flush(); err != nil {
					t.Errorf("flush at %v: %v", now, err)
				}
			}
		}
		if n, ok := burst[now]; ok {
			enqueue(n)
		}
		dec := ctrl.Step(src.Observe(context.Background(), now))
		if err := act.Apply(now, dec.CapW); err != nil {
			t.Fatalf("apply at %v: %v", now, err)
		}
		gate.Step(dec)
	})
	if _, err := job.FinalizeAll(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := ctrl.Log().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return capRunOut{
		csv:        buf.Bytes(),
		ctrl:       ctrl,
		gate:       gate,
		finalPower: c.SumPower(core.NVML, capTotal),
	}
}

// acceptance is the closed loop at the acceptance geometry (8 shards, 4
// workers) and seed, which TestClosedLoopHoldsBudgetUnderFaults judges and
// TestClosedLoopReplaysByteIdentical compares with the other geometries:
// one simulation, run once per package run.
var acceptance struct {
	once sync.Once
	out  capRunOut
}

func acceptanceRun(t *testing.T) capRunOut {
	t.Helper()
	acceptance.once.Do(func() { acceptance.out = capRun(t, capSeed(t), 8, 4, 0) })
	if acceptance.out.ctrl == nil {
		t.Fatal("the acceptance run failed in an earlier test")
	}
	return acceptance.out
}

func capSeed(t *testing.T) uint64 {
	t.Helper()
	seed := uint64(1337)
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", s, err)
		}
		seed = v
	}
	return seed
}

// TestClosedLoopHoldsBudgetUnderFaults is the tentpole acceptance run:
// under the fault plan and the admission storm, the loop holds the fleet
// inside budget+tolerance, admits the whole storm eventually or keeps
// the rest queued, and accrues zero violation seconds.
func TestClosedLoopHoldsBudgetUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("128-node closed-loop integration; skipped in -short")
	}
	cfg := capConfig()
	out := acceptanceRun(t)

	if out.finalPower > cfg.BudgetW+cfg.ToleranceW {
		t.Errorf("final fleet power %.1f W exceeds budget %v+%v W",
			out.finalPower, cfg.BudgetW, cfg.ToleranceW)
	}
	if v := out.ctrl.ViolationSeconds(); v != 0 {
		t.Errorf("violation seconds = %v, want 0", v)
	}
	// The loop had to actually cap: with 128 admitted-hungry nodes the
	// cap cannot have stayed at its ceiling.
	if cap := out.ctrl.Cap(); cap >= cfg.withDefaults().MaxW {
		t.Errorf("cap never left the ceiling (%.1f W)", cap)
	}
	if m := out.ctrl.Mode(); m != ModeCapping && m != ModeNominal {
		t.Errorf("end mode = %v; the feed was never cut", m)
	}
	// The storm moved: jobs were admitted, and admission stayed bounded
	// by the budget (not everything flushed in one burst).
	if out.gate.Admitted() == 0 {
		t.Error("gate admitted nothing")
	}
	if int(out.gate.Admitted())+out.gate.Pending() != 128 {
		t.Errorf("admitted %d + pending %d != 128 enqueued",
			out.gate.Admitted(), out.gate.Pending())
	}
}

// TestClosedLoopReplaysByteIdentical re-runs the acceptance scenario
// across shard/worker geometries and repeat runs: the decision log — the
// controller's full observable behavior — must be byte-identical. A
// different seed must produce a different log (the plan actually bites).
func TestClosedLoopReplaysByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("128-node closed-loop integration; skipped in -short")
	}
	seed := capSeed(t)
	base := capRun(t, seed, 1, 1, 0)
	for what, run := range map[string]capRunOut{
		"at shards=8 workers=4":                acceptanceRun(t),
		"at shards=32 workers=8":               capRun(t, seed, 32, 8, 0),
		"on a repeat run at the same geometry": capRun(t, seed, 8, 4, 0),
	} {
		if !bytes.Equal(base.csv, run.csv) {
			t.Errorf("decision log differs %s", what)
		}
	}
	other := capRun(t, seed+1, 8, 4, 0)
	if bytes.Equal(base.csv, other.csv) {
		t.Error("different seed produced an identical decision log")
	}
}

// TestClosedLoopWatchdogWalksLadder cuts the telemetry feed mid-run and
// checks the controller degrades on schedule: stale within the freshness
// window, degraded past the watchdog, every rung of the ladder in the
// log, and the cap at the floor by the end — all while violation seconds
// stay frozen (no data is never evidence of violation, nor of headroom).
func TestClosedLoopWatchdogWalksLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("128-node closed-loop integration; skipped in -short")
	}
	cfg := capConfig()
	out := capRun(t, capSeed(t), 8, 4, capCutoff)

	if m := out.ctrl.Mode(); m != ModeDegraded {
		t.Fatalf("end mode = %v, want degraded", m)
	}
	if cap := out.ctrl.Cap(); cap != cfg.FloorW {
		t.Errorf("end cap = %v W, want floor %v W", cap, cfg.FloorW)
	}

	var firstStale, firstDegraded time.Duration
	rungs := map[int]bool{}
	for _, d := range out.ctrl.Log().Decisions() {
		switch d.Mode {
		case ModeStale:
			if firstStale == 0 {
				firstStale = d.Now
			}
		case ModeDegraded:
			if firstDegraded == 0 {
				firstDegraded = d.Now
			}
			rungs[d.Rung] = true
		}
	}
	// The newest pre-cut data is at most one poll behind the cut, so the
	// stale transition lands within Freshness (+1 epoch of slack) of the
	// cut; the watchdog counts from the last fresh observation, so the
	// degraded transition lands within Freshness+Watchdog (+1 epoch).
	if firstStale == 0 || firstStale > capCutoff+cfg.Freshness+capEpoch {
		t.Errorf("first stale decision at %v, want <= %v", firstStale, capCutoff+cfg.Freshness+capEpoch)
	}
	deadline := capCutoff + cfg.Freshness + cfg.Watchdog + capEpoch
	if firstDegraded == 0 || firstDegraded > deadline {
		t.Errorf("first degraded decision at %v, want <= %v", firstDegraded, deadline)
	}
	// Every rung of the published ladder appears, floor included.
	for r := 0; r <= len(cfg.Ladder); r++ {
		if !rungs[r] {
			t.Errorf("rung %d never appeared in the log (saw %v)", r, rungs)
		}
	}
}
