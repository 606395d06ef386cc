package nvml

import (
	"math"
	"testing"
	"time"

	"envmon/internal/core"
	"envmon/internal/workload"
)

func newK20(seed uint64) *Device { return NewDevice(K20Spec(), 0, seed) }

func TestLibraryLifecycle(t *testing.T) {
	lib := NewLibrary(newK20(1))
	if _, ret := lib.DeviceGetCount(); ret != ErrorUninitialized {
		t.Fatalf("query before Init = %v, want Uninitialized", ret)
	}
	if ret := lib.Init(); ret != Success {
		t.Fatal(ret)
	}
	n, ret := lib.DeviceGetCount()
	if ret != Success || n != 1 {
		t.Fatalf("DeviceGetCount = %d, %v", n, ret)
	}
	if _, ret := lib.DeviceGetHandleByIndex(5); ret != ErrorInvalidArgument {
		t.Fatalf("bad index = %v", ret)
	}
}

func TestReturnStringsAndError(t *testing.T) {
	if Success.String() != "Success" || ErrorNotSupported.String() != "Not Supported" {
		t.Error("return strings wrong")
	}
	if Return(99).String() != "Return(99)" {
		t.Error("unknown return string wrong")
	}
	if Success.Error() != nil {
		t.Error("Success.Error() not nil")
	}
	if ErrorGPUIsLost.Error() == nil {
		t.Error("error code yields nil error")
	}
}

func TestK20SpecMatchesPaper(t *testing.T) {
	s := K20Spec()
	if s.CUDACores != 2496 {
		t.Errorf("CUDA cores = %d, want 2496", s.CUDACores)
	}
	if s.MemoryBytes != 5<<30 {
		t.Errorf("memory = %d, want 5 GB", s.MemoryBytes)
	}
	if math.Abs(s.PeakTFLOPS-1.17) > 1e-9 {
		t.Errorf("peak = %v, want 1.17 TFLOPS", s.PeakTFLOPS)
	}
}

func TestPowerNotSupportedOnFermi(t *testing.T) {
	// A Fermi part (Tesla M2090) has no board power sensor NVML can read.
	fermi := DeviceSpec{Name: "Tesla M2090", Arch: Fermi, IdleW: 50, MaxW: 250, RampTau: 1700 * time.Millisecond}
	d := NewDevice(fermi, 0, 1)
	if _, ret := d.GetPowerUsage(0); ret != ErrorNotSupported {
		t.Fatalf("Fermi power query = %v, want NotSupported", ret)
	}
	// but temperature works on all parts
	if _, ret := d.GetTemperature(TemperatureGPU, 0); ret != Success {
		t.Fatalf("Fermi temperature query = %v", ret)
	}
}

func TestIdlePowerMagnitude(t *testing.T) {
	d := newK20(42)
	mw, ret := d.GetPowerUsage(10 * time.Second)
	if ret != Success {
		t.Fatal(ret)
	}
	w := float64(mw) / 1000
	if w < 44-PowerAccuracyW || w > 44+PowerAccuracyW {
		t.Errorf("idle board power = %v W, want 44±5 (Fig. 4 floor)", w)
	}
}

func TestNoopRampShape(t *testing.T) {
	// Figure 4: power rises gradually after the kernel loop starts and
	// levels off after ~5 s.
	d := newK20(42)
	d.Run(workload.NoopKernel(60*time.Second), 0)

	early := d.truePowerAt(500 * time.Millisecond)
	mid := d.truePowerAt(2 * time.Second)
	settled := d.truePowerAt(10 * time.Second)
	late := d.truePowerAt(30 * time.Second)

	if !(early < mid && mid < settled) {
		t.Errorf("ramp not monotone: %.1f, %.1f, %.1f", early, mid, settled)
	}
	if math.Abs(late-settled) > 1.5 {
		t.Errorf("plateau not flat: %.1f vs %.1f", settled, late)
	}
	// noop plateau is modest: a few watts over idle, far from TDP
	if settled < 46 || settled > 85 {
		t.Errorf("noop plateau = %.1f W, want ~50-70 (Fig. 4)", settled)
	}
}

func TestVecAddTwoKneeShape(t *testing.T) {
	// Figure 5: ~10 s of host generation (device near idle), then a
	// dramatic rise for the device compute phase.
	d := newK20(42)
	w := workload.VectorAdd(10*time.Second, 80*time.Second)
	d.Run(w, 0)

	hostPhase := d.truePowerAt(6 * time.Second)
	compute := d.truePowerAt(40 * time.Second)
	if hostPhase > 60 {
		t.Errorf("device power during host generation = %.1f W, want near idle", hostPhase)
	}
	if compute < 120 {
		t.Errorf("device power during compute = %.1f W, want >> 100 (Fig. 5)", compute)
	}
}

func TestTemperatureRisesUnderLoad(t *testing.T) {
	d := newK20(42)
	d.Run(workload.VectorAdd(10*time.Second, 120*time.Second), 0)
	t0, _ := d.GetTemperature(TemperatureGPU, time.Second)
	t1, _ := d.GetTemperature(TemperatureGPU, 60*time.Second)
	t2, _ := d.GetTemperature(TemperatureGPU, 120*time.Second)
	if !(t0 < t1 && t1 <= t2) {
		t.Errorf("temperature not rising: %d, %d, %d (Fig. 5 steady increase)", t0, t1, t2)
	}
	if t2 < 45 || t2 > 95 {
		t.Errorf("loaded temperature = %d C, implausible", t2)
	}
}

func TestPowerUpdatePeriodStaleness(t *testing.T) {
	d := newK20(42)
	d.Run(workload.NoopKernel(time.Minute), 0)
	// Align to an update-cell boundary so both reads land in one cell.
	base := (10 * time.Second / PowerUpdatePeriod) * PowerUpdatePeriod
	p1, _ := d.GetPowerUsage(base + 10*time.Millisecond)
	p2, _ := d.GetPowerUsage(base + 30*time.Millisecond)
	if p1 != p2 {
		t.Errorf("power changed within one 60 ms update period: %d -> %d", p1, p2)
	}
	p3, _ := d.GetPowerUsage(base + 200*time.Millisecond)
	if p3 == p1 {
		t.Error("power frozen across multiple update periods")
	}
}

func TestSensorAccuracyBand(t *testing.T) {
	// Reported power must stay within ±5 W of the lagged true power.
	d := newK20(7)
	d.Run(workload.NoopKernel(time.Minute), 0)
	for ts := time.Second; ts < time.Minute; ts += 250 * time.Millisecond {
		mw, ret := d.GetPowerUsage(ts)
		if ret != Success {
			t.Fatal(ret)
		}
		truth := d.truePowerAt(ts)
		if math.Abs(float64(mw)/1000-truth) > PowerAccuracyW+0.002 { // +2 mW for integer-mW truncation
			t.Fatalf("at %v reported %.2f W, true %.2f W: outside ±5 W", ts, float64(mw)/1000, truth)
		}
	}
}

func TestMemoryInfoFollowsWorkload(t *testing.T) {
	d := newK20(42)
	d.Run(workload.VectorAdd(10*time.Second, 60*time.Second), 0)
	idle, _ := d.GetMemoryInfo(time.Second)
	busy, _ := d.GetMemoryInfo(40 * time.Second)
	if idle.UsedBytes >= busy.UsedBytes {
		t.Errorf("memory use did not grow: %d -> %d", idle.UsedBytes, busy.UsedBytes)
	}
	if busy.UsedBytes+busy.FreeBytes != busy.TotalBytes {
		t.Error("used + free != total")
	}
	if busy.TotalBytes != 5<<30 {
		t.Errorf("total = %d, want 5 GB", busy.TotalBytes)
	}
}

func TestFanSpeedRespondsToHeat(t *testing.T) {
	d := newK20(42)
	d.Run(workload.VectorAdd(5*time.Second, 200*time.Second), 0)
	cold, _ := d.GetFanSpeed(time.Second)
	hot, _ := d.GetFanSpeed(180 * time.Second)
	if hot <= cold {
		t.Errorf("fan did not speed up: %d%% -> %d%%", cold, hot)
	}
	rpm, ret := d.FanRPM(180 * time.Second)
	if ret != Success || rpm < 1800 || rpm > 4200 {
		t.Errorf("FanRPM = %v, %v", rpm, ret)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []uint {
		d := NewDevice(K20Spec(), 0, 99)
		d.Run(workload.VectorAdd(10*time.Second, 30*time.Second), 0)
		var out []uint
		for ts := time.Duration(0); ts < 45*time.Second; ts += 100 * time.Millisecond {
			mw, _ := d.GetPowerUsage(ts)
			out = append(out, mw)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %d != %d", i, a[i], b[i])
		}
	}
}

func TestCollectorEndToEnd(t *testing.T) {
	dev := newK20(5)
	dev.Run(workload.NoopKernel(time.Minute), 0)
	lib := NewLibrary(dev)
	lib.Init()
	col, err := NewCollector(lib, 0)
	if err != nil {
		t.Fatal(err)
	}
	if col.Platform() != core.NVML || col.Method() != "NVML" || col.Cost() != QueryCost {
		t.Error("collector identity wrong")
	}
	rs, err := col.CollectInto(nil, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// power, temperature, fan, memory used, memory free
	if len(rs) != 5 {
		t.Fatalf("Collect returned %d readings, want 5", len(rs))
	}
	if rs[0].Cap != (core.Capability{Component: core.Total, Metric: core.Power}) {
		t.Errorf("first reading = %+v, want board power", rs[0].Cap)
	}
	if col.Queries() != 1 {
		t.Error("query counter wrong")
	}
}

func TestCollectorUninitializedLibrary(t *testing.T) {
	lib := NewLibrary(newK20(1))
	if _, err := NewCollector(lib, 0); err == nil {
		t.Fatal("collector created on uninitialized library")
	}
}

func BenchmarkGetPowerUsage(b *testing.B) {
	d := newK20(1)
	d.Run(workload.NoopKernel(time.Hour), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ret := d.GetPowerUsage(time.Duration(i) * time.Millisecond); ret != Success {
			b.Fatal(ret)
		}
	}
}

func TestExtendedQueriesOnLostGPU(t *testing.T) {
	d := newK20(42)
	d.SetLost(true)
	if _, ret := d.GetTemperature(TemperatureGPU, 0); ret != ErrorGPUIsLost {
		t.Error("temperature on lost GPU")
	}
	if _, ret := d.GetPowerUsage(0); ret != ErrorGPUIsLost {
		t.Error("power on lost GPU")
	}
	d.SetLost(false)
	if _, ret := d.GetPowerUsage(time.Second); ret != Success {
		t.Error("recovered GPU still failing")
	}
}
