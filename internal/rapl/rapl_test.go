package rapl

import (
	"math"
	"testing"
	"time"

	"envmon/internal/msr"
	"envmon/internal/workload"
)

func newIdleSocket() *Socket {
	return NewSocket(Config{Name: "s0", Seed: 42})
}

func newGaussSocket() *Socket {
	s := NewSocket(Config{Name: "s0", Seed: 42})
	s.Run(workload.GaussElim(60*time.Second), 10*time.Second)
	return s
}

func TestTable2(t *testing.T) {
	rows := Table2()
	if len(rows) != 4 {
		t.Fatalf("Table2 rows = %d, want 4", len(rows))
	}
	if rows[0].Name != "PKG" || rows[0].Description != "Whole CPU package." {
		t.Errorf("PKG row = %+v", rows[0])
	}
	if rows[3].Name != "DRAM" || rows[3].Description != "Sum of socket's DIMM power(s)." {
		t.Errorf("DRAM row = %+v", rows[3])
	}
}

func TestDomainStrings(t *testing.T) {
	if PKG.String() != "PKG" || DRAM.String() != "DRAM" || Domain(9).String() != "Domain(9)" {
		t.Error("domain names wrong")
	}
}

func TestDecodeUnits(t *testing.T) {
	p, e, ts := DecodeUnits(0xA1003)
	if p != 0.125 {
		t.Errorf("power unit = %v, want 1/8", p)
	}
	if e != 1.0/65536 {
		t.Errorf("energy unit = %v, want 2^-16", e)
	}
	if ts != 1.0/1024 {
		t.Errorf("time unit = %v, want 2^-10", ts)
	}
}

func TestUnitRegisterWiredUp(t *testing.T) {
	s := newIdleSocket()
	v, err := s.Registers().Read(msr.RAPLPowerUnit, 0)
	if err != nil || v != 0xA1003 {
		t.Fatalf("unit register = %#x, %v", v, err)
	}
	// The limit registers sit at their SDM addresses and read as disabled.
	for _, addr := range []msr.Address{msr.PkgPowerLimit, msr.PP0PowerLimit, msr.PP1PowerLimit, msr.DRAMPowerLimit} {
		if v, err := s.Registers().Read(addr, 0); err != nil || v != 0 {
			t.Errorf("limit register %#x = %#x, %v; want 0", addr, v, err)
		}
	}
}

func TestEnergyMonotone(t *testing.T) {
	s := newGaussSocket()
	var prev float64
	for ts := time.Duration(0); ts < 90*time.Second; ts += 700 * time.Millisecond {
		j := s.EnergyJoules(PKG, ts)
		if j < prev {
			t.Fatalf("energy decreased at %v: %v < %v", ts, j, prev)
		}
		prev = j
	}
	if prev == 0 {
		t.Fatal("no energy accumulated")
	}
}

func TestEnergyMatchesIdlePower(t *testing.T) {
	s := newIdleSocket()
	j := s.EnergyJoules(PKG, 100*time.Second)
	// idle PKG is 10 W -> ~1000 J over 100 s (within noise)
	if math.Abs(j-1000) > 20 {
		t.Errorf("idle PKG energy over 100s = %v J, want ~1000", j)
	}
}

func TestDerivedPowerMatchesWorkload(t *testing.T) {
	s := newGaussSocket()
	// Reads must be time-ordered (counters never run backwards), so sample
	// the idle window first.
	jIdle := s.EnergyJoules(PKG, 9*time.Second) / 9
	if jIdle < 8 || jIdle > 12 {
		t.Errorf("idle PKG power = %v W, want ~10", jIdle)
	}
	// power over the loaded window [20s, 60s]
	j0 := s.EnergyJoules(PKG, 20*time.Second)
	j1 := s.EnergyJoules(PKG, 60*time.Second)
	watts := (j1 - j0) / 40
	// gauss on the package model: ~10 + 45*(0.75*0.92+0.25*0.55) ~ 47 W
	if watts < 40 || watts > 56 {
		t.Errorf("loaded PKG power = %v W, want ~47 (Fig. 3 magnitude)", watts)
	}
}

func TestCounterQuantizedToUpdatePeriod(t *testing.T) {
	s := newIdleSocket()
	// Reads a few microseconds apart within one update period see the same
	// counter (stale until the next ~1 ms boundary).
	base := 50 * time.Millisecond
	c1 := s.Counter(PKG, base+100*time.Microsecond)
	c2 := s.Counter(PKG, base+200*time.Microsecond)
	if c1 != c2 {
		t.Errorf("counter changed within one update period: %d -> %d", c1, c2)
	}
	c3 := s.Counter(PKG, base+10*time.Millisecond)
	if c3 == c1 {
		t.Errorf("counter did not advance after 10 update periods")
	}
}

func TestCounterWraps(t *testing.T) {
	// The 32-bit counter wraps after CounterWrap*EnergyUnit joules
	// (~65.5 kJ). At idle-PKG 10 W that is ~6554 s. A coarse update grid
	// keeps the multi-hour integration cheap; wrap behavior is unchanged.
	s := NewSocket(Config{Name: "s0", Seed: 42, UpdatePeriod: 10 * time.Millisecond})
	wrapAt := WrapTime(10)
	if math.Abs(wrapAt.Seconds()-6553.6) > 100 {
		t.Fatalf("WrapTime(10W) = %v, want ~6554s", wrapAt)
	}
	before := s.Counter(PKG, wrapAt-30*time.Second)
	after := s.Counter(PKG, wrapAt+30*time.Second)
	if after >= before {
		t.Errorf("counter did not wrap: %d -> %d", before, after)
	}
	// modular delta still recovers the true energy across one wrap
	delta := uint32(after - before)
	joules := float64(delta) * EnergyUnit
	if math.Abs(joules-600) > 30 { // 60 s at ~10 W
		t.Errorf("post-wrap modular delta = %v J, want ~600", joules)
	}
}

func TestWrapTimeEdge(t *testing.T) {
	if WrapTime(0) <= 0 {
		t.Error("WrapTime(0) should be effectively infinite")
	}
	if wt := WrapTime(1000); wt > 2*time.Minute || wt < time.Minute {
		t.Errorf("WrapTime(1kW) = %v, want ~65s (the paper's ~60s warning)", wt)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []uint32 {
		s := NewSocket(Config{Name: "s0", Seed: 7})
		s.Run(workload.GaussElim(30*time.Second), 0)
		var vals []uint32
		for ts := time.Duration(0); ts < 30*time.Second; ts += 100 * time.Millisecond {
			vals = append(vals, s.Counter(PKG, ts))
		}
		return vals
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %d != %d", i, a[i], b[i])
		}
	}
}

func TestReadPatternIndependence(t *testing.T) {
	// The same final energy regardless of how often it was read along the
	// way — integration must be grid-aligned, not read-aligned.
	mk := func() *Socket {
		s := NewSocket(Config{Name: "s0", Seed: 9})
		s.Run(workload.GaussElim(20*time.Second), 0)
		return s
	}
	a := mk()
	for ts := time.Duration(0); ts <= 25*time.Second; ts += 50 * time.Millisecond {
		a.EnergyJoules(PKG, ts)
	}
	ja := a.EnergyJoules(PKG, 25*time.Second)
	b := mk()
	jb := b.EnergyJoules(PKG, 25*time.Second)
	if ja != jb {
		t.Fatalf("read pattern changed energy: %v != %v", ja, jb)
	}
}

func TestMSRCollectorEndToEnd(t *testing.T) {
	s := NewSocket(Config{Name: "s0", Seed: 3})
	s.Run(workload.GaussElim(60*time.Second), 10*time.Second)
	drv := s.Driver(4)
	drv.Load()
	dev, err := drv.Open(0, msr.Root)
	if err != nil {
		t.Fatal(err)
	}
	col, err := NewMSRCollector(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	if col.Platform().String() != "RAPL" || col.Method() != "MSR" {
		t.Error("collector identity wrong")
	}
	if col.Cost() != msr.ReadCost {
		t.Errorf("Cost = %v", col.Cost())
	}

	// first collect: baselines only, no readings
	rs, err := col.CollectInto(nil, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 0 {
		t.Fatalf("first Collect returned %d readings, want 0", len(rs))
	}
	// second collect: 4 energy + 4 power readings
	rs, err = col.CollectInto(nil, 21*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 8 {
		t.Fatalf("second Collect returned %d readings, want 8", len(rs))
	}
	var pkgPower float64
	for _, r := range rs {
		if r.Cap.Metric.String() == "Power" && r.Cap.Component.String() == "Total" {
			pkgPower = r.Value
		}
	}
	if pkgPower < 35 || pkgPower > 60 {
		t.Errorf("collector PKG power = %v W, want ~47", pkgPower)
	}
	if col.Queries() != 2 {
		t.Errorf("Queries = %d", col.Queries())
	}
}

func TestMSRCollectorSurvivesOneWrap(t *testing.T) {
	// 10 W PKG -> wrap at ~6554 s; coarse grid for speed
	s := NewSocket(Config{Name: "s0", Seed: 42, UpdatePeriod: 10 * time.Millisecond})
	drv := s.Driver(1)
	drv.Load()
	dev, _ := drv.Open(0, msr.Root)
	col, _ := NewMSRCollector(dev, 0)
	wrapAt := WrapTime(10)
	if _, err := col.CollectInto(nil, wrapAt-60*time.Second); err != nil {
		t.Fatal(err)
	}
	rs, err := col.CollectInto(nil, wrapAt+60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Cap.Component.String() == "Total" && r.Cap.Metric.String() == "Power" {
			if r.Value < 8 || r.Value > 12 {
				t.Errorf("power across wrap = %v W, want ~10", r.Value)
			}
		}
	}
}

func TestMSRCollectorUndercountsAcrossTwoWraps(t *testing.T) {
	// Sampling slower than the wrap period silently undercounts — the
	// paper's "erroneous data" warning, reproduced.
	s := NewSocket(Config{Name: "s0", Seed: 42, UpdatePeriod: 10 * time.Millisecond})
	drv := s.Driver(1)
	drv.Load()
	dev, _ := drv.Open(0, msr.Root)
	col, _ := NewMSRCollector(dev, 0)
	wrapAt := WrapTime(10)
	if _, err := col.CollectInto(nil, 0); err != nil {
		t.Fatal(err)
	}
	rs, err := col.CollectInto(nil, 2*wrapAt+10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Cap.Component.String() == "Total" && r.Cap.Metric.String() == "Power" {
			if r.Value > 8 {
				t.Errorf("power across 2 wraps = %v W; expected gross undercount (<8)", r.Value)
			}
		}
	}
}

func TestPerfReaderNoWraparound(t *testing.T) {
	s := NewSocket(Config{Name: "s0", Seed: 42, UpdatePeriod: 10 * time.Millisecond})
	p := NewPerfReader(s, 0)
	if p.Method() != "perf" || p.Cost() != PerfReadCost {
		t.Error("perf reader identity wrong")
	}
	wrapAt := WrapTime(10)
	j := p.EnergyJoules(PKG, 2*wrapAt)
	// 2 wraps worth of time at ~10 W: energy must be ~2*65.5 kJ, NOT folded
	want := 10 * (2 * wrapAt.Seconds())
	if math.Abs(j-want) > want*0.05 {
		t.Errorf("perf energy = %v J, want ~%v (kernel accumulates wraps)", j, want)
	}
}

func TestPerfReaderCollect(t *testing.T) {
	s := NewSocket(Config{Name: "s0", Seed: 5})
	s.Run(workload.GaussElim(60*time.Second), 0)
	p := NewPerfReader(s, 0)
	if rs, _ := p.CollectInto(nil, 10*time.Second); len(rs) != 0 {
		t.Fatalf("first perf Collect returned %d readings", len(rs))
	}
	rs, err := p.CollectInto(nil, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 8 {
		t.Fatalf("perf Collect returned %d readings, want 8", len(rs))
	}
	if p.Queries() != 2 {
		t.Errorf("Queries = %d", p.Queries())
	}
}

func TestPerfSlowerThanMSR(t *testing.T) {
	// The paper's expectation: "using the perf interface would result in
	// higher access times than reading the MSRs directly".
	if PerfReadCost <= msr.ReadCost {
		t.Errorf("perf cost %v <= MSR cost %v", PerfReadCost, msr.ReadCost)
	}
}

func TestSocketScopeNoPerCoreData(t *testing.T) {
	// All logical CPUs share one register file: per-core energy is not a
	// thing ("not possible to collect data for individual cores").
	s := newIdleSocket()
	drv := s.Driver(8)
	drv.Load()
	dev0, _ := drv.Open(0, msr.Root)
	dev7, _ := drv.Open(7, msr.Root)
	at := 5 * time.Second
	v0, _ := dev0.Read(msr.PkgEnergyStatus, at)
	v7, _ := dev7.Read(msr.PkgEnergyStatus, at)
	if v0 != v7 {
		t.Errorf("per-CPU counters differ: %d vs %d (scope must be socket)", v0, v7)
	}
}

func TestPP1NotUsefulOnServer(t *testing.T) {
	// Table II: PP1 is the uncore/iGPU plane, "not useful in server
	// platforms" — our model keeps it at a sub-watt constant.
	s := newGaussSocket()
	j := s.EnergyJoules(PP1, 100*time.Second)
	if j > 100 { // < 1 W average
		t.Errorf("PP1 energy = %v J over 100s; should be ~50 (0.5 W)", j)
	}
}

func BenchmarkCounterRead(b *testing.B) {
	s := newGaussSocket()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Counter(PKG, time.Duration(i)*100*time.Microsecond)
	}
}

func BenchmarkMSRCollect(b *testing.B) {
	s := newGaussSocket()
	drv := s.Driver(1)
	drv.Load()
	dev, _ := drv.Open(0, msr.Root)
	col, _ := NewMSRCollector(dev, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := col.CollectInto(nil, time.Duration(i)*time.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
}
