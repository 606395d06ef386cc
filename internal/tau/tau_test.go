package tau

import (
	"math"
	"testing"
	"time"

	"envmon/internal/msr"
	"envmon/internal/rapl"
	"envmon/internal/workload"
)

func newProfiler(t *testing.T) (*Profiler, *rapl.Socket) {
	t.Helper()
	socket := rapl.NewSocket(rapl.Config{Name: "tau", Seed: 42})
	drv := socket.Driver(1)
	drv.Load()
	dev, err := drv.Open(0, msr.Root)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProfiler(dev)
	if err != nil {
		t.Fatal(err)
	}
	return p, socket
}

func TestBasicTimer(t *testing.T) {
	p, socket := newProfiler(t)
	socket.Run(workload.GaussElim(60*time.Second), 0)

	if err := p.Start("main", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := p.Stop("main", 25*time.Second); err != nil {
		t.Fatal(err)
	}
	prof, err := p.Profile()
	if err != nil {
		t.Fatal(err)
	}
	if len(prof) != 1 {
		t.Fatalf("profile = %+v", prof)
	}
	m := prof[0]
	if m.Calls != 1 || m.Inclusive != 20*time.Second || m.Exclusive != 20*time.Second {
		t.Errorf("timer = %+v", m)
	}
	// gauss package power ~47 W over 20 s -> ~940 J
	if m.InclusiveJ < 850 || m.InclusiveJ > 1050 {
		t.Errorf("energy = %.0f J, want ~940", m.InclusiveJ)
	}
	if mp := m.MeanPower(); mp < 40 || mp > 56 {
		t.Errorf("mean power = %.1f W", mp)
	}
}

func TestNestingExclusiveAccounting(t *testing.T) {
	p, socket := newProfiler(t)
	socket.Run(workload.FixedRuntime(2*time.Minute), 0)

	// main [0, 60s] contains solver [10s, 40s]
	if err := p.Start("main", 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Start("solver", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := p.Stop("solver", 40*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := p.Stop("main", 60*time.Second); err != nil {
		t.Fatal(err)
	}
	prof, err := p.Profile()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Timer{}
	for _, tm := range prof {
		byName[tm.Name] = tm
	}
	main, solver := byName["main"], byName["solver"]
	if main.Inclusive != 60*time.Second || main.Exclusive != 30*time.Second {
		t.Errorf("main = %+v", main)
	}
	if solver.Inclusive != 30*time.Second || solver.Exclusive != 30*time.Second {
		t.Errorf("solver = %+v", solver)
	}
	// energy conservation: main inclusive = main exclusive + solver inclusive
	if math.Abs(main.InclusiveJ-(main.ExclusiveJ+solver.InclusiveJ)) > 1e-6 {
		t.Errorf("energy not conserved: %v != %v + %v",
			main.InclusiveJ, main.ExclusiveJ, solver.InclusiveJ)
	}
	// profile sorted by exclusive time: main (30s) then solver (30s) — tie
	// broken by name; both 30s, "main" < "solver"
	if prof[0].Name != "main" {
		t.Errorf("sort order: %v", []string{prof[0].Name, prof[1].Name})
	}
}

func TestImproperNestingRejected(t *testing.T) {
	p, _ := newProfiler(t)
	p.Start("a", 0)
	p.Start("b", time.Second)
	if err := p.Stop("a", 2*time.Second); err == nil {
		t.Fatal("out-of-order Stop accepted")
	}
	if err := p.Stop("b", 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := p.Stop("a", 3*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestRecursiveStartRejected(t *testing.T) {
	p, _ := newProfiler(t)
	p.Start("f", 0)
	if err := p.Start("f", time.Second); err == nil {
		t.Fatal("recursive Start accepted")
	}
}

func TestStopWithoutStart(t *testing.T) {
	p, _ := newProfiler(t)
	if err := p.Stop("ghost", time.Second); err == nil {
		t.Fatal("Stop without Start accepted")
	}
}

func TestStopBeforeStartTime(t *testing.T) {
	p, _ := newProfiler(t)
	p.Start("x", 10*time.Second)
	if err := p.Stop("x", 5*time.Second); err == nil {
		t.Fatal("backward Stop accepted")
	}
}

func TestProfileWithRunningTimers(t *testing.T) {
	p, _ := newProfiler(t)
	p.Start("open", 0)
	if _, err := p.Profile(); err == nil {
		t.Fatal("Profile with running timer succeeded")
	}
}

func TestRepeatedCallsAccumulate(t *testing.T) {
	p, socket := newProfiler(t)
	socket.Run(workload.FixedRuntime(time.Minute), 0)
	for i := 0; i < 5; i++ {
		start := time.Duration(i) * 10 * time.Second
		if err := p.Start("loop", start); err != nil {
			t.Fatal(err)
		}
		if err := p.Stop("loop", start+2*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	prof, _ := p.Profile()
	if prof[0].Calls != 5 || prof[0].Inclusive != 10*time.Second {
		t.Errorf("accumulated = %+v", prof[0])
	}
}

func TestRAPLOnlyBackend(t *testing.T) {
	// TAU's power support is RAPL-only; the constructor requires a
	// readable RAPL unit register. A device without one must fail.
	rf := msr.NewRegisterFile() // empty: no RAPL MSRs
	drv := msr.NewDriver(map[int]*msr.RegisterFile{0: rf})
	drv.Load()
	dev, err := drv.Open(0, msr.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewProfiler(dev); err == nil {
		t.Fatal("profiler created without RAPL MSRs")
	}
}

func TestMeanPowerZeroDivision(t *testing.T) {
	if (Timer{}).MeanPower() != 0 {
		t.Error("zero-duration MeanPower should be 0")
	}
}
