package mic

import (
	"math"
	"testing"
	"time"

	"envmon/internal/core"
	"envmon/internal/ipmb"
	"envmon/internal/scif"
	"envmon/internal/stats"
	"envmon/internal/workload"
)

func newCard() *Card { return New(Config{Index: 0, Seed: 42}) }

func TestHardwareConstantsMatchPaper(t *testing.T) {
	if Cores != 61 || ThreadsPerCore != 4 || Threads != 244 {
		t.Error("core/thread counts do not match the paper")
	}
	if PeakTFLOPS != 1.2 {
		t.Error("peak performance does not match the paper")
	}
	if InBandQueryCost != 14200*time.Microsecond {
		t.Error("in-band query cost != 14.2 ms")
	}
	if DaemonQueryCost != 40*time.Microsecond {
		t.Error("daemon query cost != 0.04 ms")
	}
}

func TestIdlePowerMagnitude(t *testing.T) {
	c := newCard()
	p := c.TotalPower(5 * time.Second)
	// idle: PKG 62 + PP... only PKG+DRAM counted: 62+26+12 overhead = ~100
	if p < 90 || p > 112 {
		t.Errorf("idle card power = %.1f W, want ~100", p)
	}
}

func TestNoopPowerMagnitude(t *testing.T) {
	c := newCard()
	c.Run(workload.NoopKernel(5*time.Minute), 0)
	p := c.TotalPower(30 * time.Second)
	// Fig. 7 band: ~111-119 W
	if p < 105 || p > 125 {
		t.Errorf("noop card power = %.1f W, want ~112 (Fig. 7)", p)
	}
}

func TestPhiGaussKnee(t *testing.T) {
	c := newCard()
	c.Run(workload.PhiGauss(100*time.Second, 140*time.Second), 0)
	gen := c.TotalPower(60 * time.Second)
	compute := c.TotalPower(150 * time.Second)
	if gen > 120 {
		t.Errorf("generation-phase power = %.1f W, card should be near idle", gen)
	}
	if compute < 170 {
		t.Errorf("compute-phase power = %.1f W, want ~200 (Fig. 8)", compute)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := Snapshot{
		PowerMW: 115500, DieCx10: 655, GDDRCx10: 601, IntakeCx10: 380,
		ExhaustCx10: 520, FanRPM: 2300, CoreMV: 1030, MemMV: 1500,
		UsedMB: 612, TotalMB: 8192, CoreMHz: 1100, MemKTps: 5500,
	}
	got, err := UnmarshalSnapshot(s.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got != s {
		t.Fatalf("round trip: %+v != %+v", got, s)
	}
	if _, err := UnmarshalSnapshot([]byte{1, 2, 3}); err == nil {
		t.Fatal("short snapshot accepted")
	}
}

func TestSnapshotAtContents(t *testing.T) {
	c := newCard()
	c.Run(workload.NoopKernel(time.Minute), 0)
	snap := c.SnapshotAt(30 * time.Second)
	if snap.TotalMB != 8192 {
		t.Errorf("TotalMB = %d, want 8192", snap.TotalMB)
	}
	if snap.CoreMHz != CoreClockMHz {
		t.Errorf("CoreMHz = %d, want %d under load", snap.CoreMHz, CoreClockMHz)
	}
	if snap.PowerMW < 100000 || snap.PowerMW > 130000 {
		t.Errorf("PowerMW = %d, implausible", snap.PowerMW)
	}
	if snap.DieCx10 < 400 || snap.DieCx10 > 950 {
		t.Errorf("DieCx10 = %d, implausible", snap.DieCx10)
	}
	if snap.ExhaustCx10 <= snap.IntakeCx10 {
		t.Error("exhaust not hotter than intake")
	}
}

func TestInBandPathEndToEnd(t *testing.T) {
	net := scif.NewNetwork(1)
	c := newCard()
	c.Run(workload.NoopKernel(5*time.Minute), 0)
	svc, err := StartSysMgmt(net, 1, c)
	if err != nil {
		t.Fatal(err)
	}
	col := NewInBandCollector(net, svc)
	if col.Platform() != core.XeonPhi || col.Method() != "SysMgmt API" {
		t.Error("collector identity wrong")
	}
	rs, err := col.CollectInto(nil, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 12 {
		t.Fatalf("in-band Collect returned %d readings, want 12", len(rs))
	}
	if rs[0].Value < 100 || rs[0].Value > 150 {
		t.Errorf("in-band power = %v W", rs[0].Value)
	}
	elapsed := col.LastDone() - 10*time.Second
	if elapsed < 14*time.Millisecond || elapsed > 15*time.Millisecond {
		t.Errorf("in-band round trip = %v, want ~14.2 ms", elapsed)
	}
	if col.Queries() != 1 {
		t.Error("query counter")
	}
}

func TestInBandRaisesPowerOverDaemon(t *testing.T) {
	// The Figure 7 effect: sample a noop workload via the in-band API on
	// one card and via the daemon path on an identically-seeded card;
	// the API samples must be significantly higher (Welch p < 0.01).
	const (
		pollEvery = 100 * time.Millisecond
		start     = 5 * time.Second
		end       = 65 * time.Second
	)

	// API path
	netA := scif.NewNetwork(1)
	cardA := New(Config{Index: 0, Seed: 42})
	cardA.Run(workload.NoopKernel(2*time.Minute), 0)
	svcA, err := StartSysMgmt(netA, 1, cardA)
	if err != nil {
		t.Fatal(err)
	}
	colA := NewInBandCollector(netA, svcA)
	var apiW []float64
	for ts := start; ts < end; ts += pollEvery {
		rs, err := colA.CollectInto(nil, ts)
		if err != nil {
			t.Fatal(err)
		}
		apiW = append(apiW, rs[0].Value)
	}

	// Daemon path (same seed, no SCIF wake-ups, small contention cost)
	cardD := New(Config{Index: 0, Seed: 42})
	cardD.Run(workload.NoopKernel(2*time.Minute), 0)
	cardD.SetDaemonBusy(true)
	var daemonW []float64
	for ts := start; ts < end; ts += pollEvery {
		daemonW = append(daemonW, cardD.TotalPower(ts))
	}

	ma, md := stats.Mean(apiW), stats.Mean(daemonW)
	if ma <= md {
		t.Fatalf("API mean %.2f W <= daemon mean %.2f W; Fig. 7 inverted", ma, md)
	}
	diff := ma - md
	if diff < 1 || diff > 8 {
		t.Errorf("API-daemon difference = %.2f W, want ~3-5 (Fig. 7 is slight)", diff)
	}
	r := stats.WelchT(apiW, daemonW)
	if r.P > 0.01 {
		t.Errorf("difference not significant: p = %v", r.P)
	}
}

func TestOutOfBandPathEndToEnd(t *testing.T) {
	bus := ipmb.NewBus()
	c := newCard()
	c.Run(workload.NoopKernel(5*time.Minute), 0)
	smc := c.SMC(0)
	bus.Attach(smc)
	bmc := ipmb.NewBMC(bus)
	col := NewOOBCollector(bmc, smc.SlaveAddr())

	rs, err := col.CollectInto(nil, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 12 {
		t.Fatalf("OOB Collect returned %d readings", len(rs))
	}
	elapsed := col.LastDone() - 10*time.Second
	if elapsed < 2*time.Millisecond {
		t.Errorf("OOB transaction = %v; I2C should be slow", elapsed)
	}
	// single-value query
	mw, _, err := col.PowerMilliwatts(11 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if mw < 100000 || mw > 130000 {
		t.Errorf("OOB power = %d mW", mw)
	}
}

func TestOutOfBandDoesNotDisturbCard(t *testing.T) {
	// OOB queries must not create wake windows: two identically-seeded
	// cards, one polled hard over IPMB, must report the same power.
	mk := func() (*Card, *OOBCollector) {
		c := New(Config{Index: 0, Seed: 7})
		c.Run(workload.NoopKernel(2*time.Minute), 0)
		bus := ipmb.NewBus()
		smc := c.SMC(0)
		bus.Attach(smc)
		return c, NewOOBCollector(ipmb.NewBMC(bus), smc.SlaveAddr())
	}
	cPolled, colPolled := mk()
	for ts := time.Second; ts < 30*time.Second; ts += 50 * time.Millisecond {
		if _, err := colPolled.CollectInto(nil, ts); err != nil {
			t.Fatal(err)
		}
	}
	pPolled := cPolled.TotalPower(30 * time.Second)

	cQuiet, _ := mk()
	pQuiet := cQuiet.TotalPower(30 * time.Second)
	if pPolled != pQuiet {
		t.Errorf("OOB polling changed card power: %.3f vs %.3f", pPolled, pQuiet)
	}
}

func TestSMCInvalidCommand(t *testing.T) {
	bus := ipmb.NewBus()
	c := newCard()
	smc := c.SMC(0)
	bus.Attach(smc)
	bmc := ipmb.NewBMC(bus)
	data, _, err := bmc.Query(0, smc.SlaveAddr(), ipmb.NetFnOEM, 0x7F, nil)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != ipmb.CompletionInvalidCommand {
		t.Errorf("completion = %#x", data[0])
	}
	// wrong netFn also rejected
	data, _, err = bmc.Query(time.Second, smc.SlaveAddr(), ipmb.NetFnApp, CmdGetPower, nil)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != ipmb.CompletionInvalidCommand {
		t.Errorf("wrong netFn completion = %#x", data[0])
	}
}

func TestTemperaturesTrackLoad(t *testing.T) {
	c := newCard()
	c.Run(workload.PhiGauss(10*time.Second, 200*time.Second), 0)
	die0, gddr0, _, _ := c.Temperatures(5 * time.Second)
	die1, gddr1, _, _ := c.Temperatures(180 * time.Second)
	if die1 <= die0 || gddr1 <= gddr0 {
		t.Errorf("temperatures did not rise under load: die %.1f->%.1f gddr %.1f->%.1f",
			die0, die1, gddr0, gddr1)
	}
	if die1 > 100 {
		t.Errorf("die temperature %.1f C implausible", die1)
	}
}

func TestMemoryUsageFollowsPhases(t *testing.T) {
	c := newCard()
	c.Run(workload.PhiGauss(50*time.Second, 100*time.Second), 0)
	_, usedIdle, _ := c.MemoryUsage(10 * time.Second)
	total, usedBusy, free := c.MemoryUsage(100 * time.Second)
	if usedBusy <= usedIdle {
		t.Error("GDDR use did not grow in compute phase")
	}
	if usedBusy+free != total {
		t.Error("used+free != total")
	}
}

func TestCoreFrequencyIdleVsLoaded(t *testing.T) {
	c := newCard()
	if f := c.CoreFrequencyMHz(0); f != 600 {
		t.Errorf("idle freq = %v, want downclocked 600", f)
	}
	c.Run(workload.NoopKernel(time.Minute), 0)
	if f := c.CoreFrequencyMHz(time.Second); f != CoreClockMHz {
		t.Errorf("loaded freq = %v, want %d", f, CoreClockMHz)
	}
}

func TestInternalRAPLExposed(t *testing.T) {
	c := newCard()
	// The card's internal RAPL is a real rapl.Socket: its unit register
	// must decode like any other.
	v, err := c.InternalRAPL().Registers().Read(0x606, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v == 0 {
		t.Error("internal RAPL unit register empty")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []float64 {
		c := New(Config{Index: 0, Seed: 9})
		c.Run(workload.PhiGauss(20*time.Second, 30*time.Second), 0)
		var out []float64
		for ts := time.Duration(0); ts < time.Minute; ts += 500 * time.Millisecond {
			out = append(out, c.TotalPower(ts))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v != %v", i, a[i], b[i])
		}
	}
}

func TestWakeOverlapHelper(t *testing.T) {
	c := newCard()
	c.recordWake(100*time.Millisecond, 120*time.Millisecond)
	c.recordWake(200*time.Millisecond, 230*time.Millisecond)
	c.mu.Lock()
	defer c.mu.Unlock()
	cases := []struct {
		a, b time.Duration
		want time.Duration
	}{
		{0, 50 * time.Millisecond, 0},
		{0, time.Second, 50 * time.Millisecond},
		{110 * time.Millisecond, 210 * time.Millisecond, 20 * time.Millisecond},
		{300 * time.Millisecond, 400 * time.Millisecond, 0},
	}
	for _, tc := range cases {
		if got := c.wakeOverlap(tc.a, tc.b); got != tc.want {
			t.Errorf("wakeOverlap(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

// TestWakeLogStaysBounded: the SMC consults a wake window only while its
// sampling grid is still behind the window's end, so a card polled in-band
// for as long as a daemon runs keeps the windows of the cells not yet
// evaluated — not one per poll since boot.
func TestWakeLogStaysBounded(t *testing.T) {
	c := newCard()
	c.Run(workload.NoopKernel(time.Hour), 0)
	for ts := time.Duration(0); ts < 10*time.Minute; ts += SMCUpdatePeriod {
		c.recordWake(ts, ts+InBandQueryCost)
		c.TotalPower(ts + InBandQueryCost)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.wakes); n > 4 {
		t.Errorf("card holds %d wake windows after 12000 polls, want a handful", n)
	}
}

func TestDaemonCostRelationToRAPL(t *testing.T) {
	// Paper: daemon and RAPL costs are "almost the same because the
	// implementation on both is essentially the same".
	if ratio := float64(DaemonQueryCost) / float64(30*time.Microsecond); ratio < 1 || ratio > 2 {
		t.Errorf("daemon/MSR cost ratio = %v, want close to 1", ratio)
	}
	if InBandQueryCost < 100*DaemonQueryCost {
		t.Error("in-band should dwarf the daemon cost (14.2ms vs 0.04ms)")
	}
}

func TestMeanPowerDifferenceMagnitude(t *testing.T) {
	// Sanity on the wake-energy model: continuous in-band polling at
	// 100 ms adds roughly duty*boost = (14.2/100)*30 ~ 4.3 W on average.
	duty := InBandQueryCost.Seconds() / 0.1
	avg := duty * InBandWakeBoostW
	if math.Abs(avg-4.26) > 0.2 {
		t.Errorf("expected mean boost = %.2f W, want ~4.3", avg)
	}
}

func BenchmarkSnapshotAt(b *testing.B) {
	c := newCard()
	c.Run(workload.NoopKernel(time.Hour), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.SnapshotAt(time.Duration(i) * time.Millisecond)
	}
}
