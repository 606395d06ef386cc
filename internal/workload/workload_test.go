package workload

import (
	"testing"
	"testing/quick"
	"time"
)

func TestClampedAndScale(t *testing.T) {
	a := Activity{Compute: 1.5, Memory: -0.2, Network: 0.5}
	c := a.Clamped()
	if c.Compute != 1 || c.Memory != 0 || c.Network != 0.5 {
		t.Errorf("Clamped = %+v", c)
	}
	s := Activity{Compute: 0.5}.Scale(3)
	if s.Compute != 1 {
		t.Errorf("Scale clamp = %+v", s)
	}
	s = Activity{Compute: 0.5, PCIe: 0.2}.Scale(0.5)
	if s.Compute != 0.25 || s.PCIe != 0.1 {
		t.Errorf("Scale = %+v", s)
	}
}

func TestClampProperty(t *testing.T) {
	f := func(c, m, n, p, h float64) bool {
		a := Activity{c, m, n, p, h}.Clamped()
		for _, v := range []float64{a.Compute, a.Memory, a.Network, a.PCIe, a.HostCPU} {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewPhasedValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewPhased("x") },
		func() { NewPhased("x", Phase{Name: "a", Dur: 0}) },
		func() { NewPhased("x", Phase{Name: "a", Dur: -time.Second}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid NewPhased did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestPhasedBoundaries(t *testing.T) {
	w := NewPhased("w",
		Phase{Name: "a", Dur: time.Second, Act: Activity{Compute: 0.1}},
		Phase{Name: "b", Dur: 2 * time.Second, Act: Activity{Compute: 0.2}},
	)
	if w.Duration() != 3*time.Second {
		t.Fatalf("Duration = %v", w.Duration())
	}
	cases := []struct {
		t     time.Duration
		phase string
		comp  float64
	}{
		{-1, "idle", 0},
		{0, "a", 0.1},
		{999 * time.Millisecond, "a", 0.1},
		{time.Second, "b", 0.2}, // boundary belongs to next phase
		{2999 * time.Millisecond, "b", 0.2},
		{3 * time.Second, "idle", 0}, // end is exclusive
		{time.Hour, "idle", 0},
	}
	for _, c := range cases {
		if got := w.PhaseAt(c.t); got != c.phase {
			t.Errorf("PhaseAt(%v) = %q, want %q", c.t, got, c.phase)
		}
		if got := w.ActivityAt(c.t).Compute; got != c.comp {
			t.Errorf("ActivityAt(%v).Compute = %v, want %v", c.t, got, c.comp)
		}
	}
}

func TestPhaseWindow(t *testing.T) {
	w := NewPhased("w",
		Phase{Name: "a", Dur: time.Second},
		Phase{Name: "b", Dur: 2 * time.Second},
	)
	start, end, ok := w.PhaseWindow("b")
	if !ok || start != time.Second || end != 3*time.Second {
		t.Errorf("PhaseWindow(b) = %v,%v,%v", start, end, ok)
	}
	if _, _, ok := w.PhaseWindow("zzz"); ok {
		t.Error("PhaseWindow found nonexistent phase")
	}
}

func TestWithRhythmDipsAndSpikes(t *testing.T) {
	base := NewPhased("b", Phase{Name: "c", Dur: time.Minute, Act: Activity{Compute: 0.9}})
	w := WithRhythm(base, 5*time.Second, 400*time.Millisecond, 0.5, 0.1)

	// inside the dip window
	dip := w.ActivityAt(5*time.Second + 100*time.Millisecond)
	if dip.Compute != 0.45 {
		t.Errorf("dip Compute = %v, want 0.45", dip.Compute)
	}
	// inside the spike window right after the dip
	spike := w.ActivityAt(5*time.Second + 450*time.Millisecond)
	if spike.Compute <= 0.9 {
		t.Errorf("spike Compute = %v, want > 0.9", spike.Compute)
	}
	// steady section
	steady := w.ActivityAt(7 * time.Second)
	if steady.Compute != 0.9 {
		t.Errorf("steady Compute = %v, want 0.9", steady.Compute)
	}
	// after the workload ends, still idle
	if a := w.ActivityAt(2 * time.Minute); a != (Activity{}) {
		t.Errorf("post-end activity %+v", a)
	}
}

func TestWithRhythmValidation(t *testing.T) {
	base := Sleep(time.Minute)
	for _, fn := range []func(){
		func() { WithRhythm(base, 0, time.Second, 0.5, 0) },
		func() { WithRhythm(base, time.Second, time.Second, 0.5, 0) },
		func() { WithRhythm(base, time.Second, 0, 0.5, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid WithRhythm did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestMMPSShape(t *testing.T) {
	w := MMPS(30 * time.Minute)
	if w.Duration() != 30*time.Minute {
		t.Fatalf("Duration = %v", w.Duration())
	}
	mid := w.ActivityAt(15 * time.Minute)
	if mid.Network < 0.9 {
		t.Errorf("MMPS mid network = %v, want >= 0.9 (interconnect benchmark)", mid.Network)
	}
	if mid.Network <= mid.Compute {
		t.Error("MMPS should be network-dominated")
	}
}

func TestGaussElimHasRhythm(t *testing.T) {
	w := GaussElim(70 * time.Second)
	// sample compute activity; must contain at least 10 distinct dips
	dips := 0
	inDip := false
	for ts := time.Duration(0); ts < w.Duration(); ts += 100 * time.Millisecond {
		c := w.ActivityAt(ts).Compute
		if c < 0.9*0.92 && c > 0 {
			if !inDip {
				dips++
				inDip = true
			}
		} else {
			inDip = false
		}
	}
	if dips < 10 {
		t.Errorf("GaussElim dips = %d, want >= 10 over 70s", dips)
	}
}

func TestVectorAddPhaseOrder(t *testing.T) {
	w := VectorAdd(10*time.Second, 80*time.Second)
	// During host generation the device must be idle.
	gen := w.ActivityAt(5 * time.Second)
	if gen.Compute != 0 || gen.HostCPU < 0.8 {
		t.Errorf("host-generate activity = %+v", gen)
	}
	// During transfer PCIe is busy.
	start, end, ok := w.(*Phased).PhaseWindow("h2d-transfer")
	if !ok {
		t.Fatal("no transfer phase")
	}
	tr := w.ActivityAt((start + end) / 2)
	if tr.PCIe < 0.8 {
		t.Errorf("transfer PCIe = %v", tr.PCIe)
	}
	// During compute the device dominates.
	cs, ce, _ := w.(*Phased).PhaseWindow("device-compute")
	comp := w.ActivityAt((cs + ce) / 2)
	if comp.Compute < 0.5 || comp.Memory < 0.9 {
		t.Errorf("compute activity = %+v", comp)
	}
	if comp.HostCPU >= gen.HostCPU {
		t.Error("host should quiesce during device compute")
	}
}

func TestPhiGaussKneeAt100s(t *testing.T) {
	w := PhiGauss(100*time.Second, 140*time.Second)
	before := w.ActivityAt(50 * time.Second)
	after := w.ActivityAt(120 * time.Second)
	if before.Compute != 0 {
		t.Errorf("device busy during generation: %+v", before)
	}
	if after.Compute < 0.8 {
		t.Errorf("device idle during compute: %+v", after)
	}
	if got := w.PhaseAt(50 * time.Second); got != "host-generate" {
		t.Errorf("PhaseAt(50s) = %q", got)
	}
}

func TestSleepAndFixedRuntime(t *testing.T) {
	s := Sleep(5 * time.Second)
	if s.ActivityAt(time.Second) != (Activity{}) {
		t.Error("Sleep not idle")
	}
	f := FixedRuntime(202 * time.Second)
	if f.Duration() != 202*time.Second {
		t.Errorf("FixedRuntime duration = %v", f.Duration())
	}
	if f.ActivityAt(100*time.Second).Compute == 0 {
		t.Error("FixedRuntime idle mid-run")
	}
}

func TestActivityZeroOutsideRunProperty(t *testing.T) {
	ws := []Workload{
		MMPS(time.Minute),
		GaussElim(time.Minute),
		NoopKernel(time.Minute),
		VectorAdd(10*time.Second, time.Minute),
		PhiGauss(30*time.Second, time.Minute),
		FixedRuntime(time.Minute),
	}
	for _, w := range ws {
		if a := w.ActivityAt(-time.Second); a != (Activity{}) {
			t.Errorf("%s active before start: %+v", w.Name(), a)
		}
		if a := w.ActivityAt(w.Duration()); a != (Activity{}) {
			t.Errorf("%s active at end instant: %+v", w.Name(), a)
		}
		if a := w.ActivityAt(w.Duration() + time.Hour); a != (Activity{}) {
			t.Errorf("%s active after end: %+v", w.Name(), a)
		}
	}
}

func TestAllActivitiesInRangeProperty(t *testing.T) {
	ws := []Workload{
		MMPS(time.Minute),
		GaussElim(time.Minute),
		NoopKernel(time.Minute),
		VectorAdd(10*time.Second, time.Minute),
		PhiGauss(30*time.Second, time.Minute),
	}
	for _, w := range ws {
		for ts := time.Duration(0); ts < w.Duration(); ts += 137 * time.Millisecond {
			a := w.ActivityAt(ts)
			for _, v := range []float64{a.Compute, a.Memory, a.Network, a.PCIe, a.HostCPU} {
				if v < 0 || v > 1 {
					t.Fatalf("%s activity out of range at %v: %+v", w.Name(), ts, a)
				}
			}
		}
	}
}
