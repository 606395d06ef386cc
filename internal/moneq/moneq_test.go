package moneq

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"envmon/internal/bgq"
	"envmon/internal/core"
	"envmon/internal/msr"
	"envmon/internal/nvml"
	"envmon/internal/rapl"
	"envmon/internal/simclock"
	"envmon/internal/trace"
	"envmon/internal/workload"
)

// fakeCollector is a minimal deterministic collector for unit tests.
type fakeCollector struct {
	method string
	min    time.Duration
	cost   time.Duration
	calls  int
	failAt int // fail on this call number (1-based), 0 = never
}

func (f *fakeCollector) Platform() core.Platform    { return core.RAPL }
func (f *fakeCollector) Method() string             { return f.method }
func (f *fakeCollector) Cost() time.Duration        { return f.cost }
func (f *fakeCollector) MinInterval() time.Duration { return f.min }
func (f *fakeCollector) CollectInto(buf []core.Reading, now time.Duration) ([]core.Reading, error) {
	f.calls++
	if f.failAt != 0 && f.calls == f.failAt {
		return buf[:0], errors.New("synthetic backend failure")
	}
	return append(buf[:0], core.Reading{
		Cap:   core.Capability{Component: core.Total, Metric: core.Power},
		Value: float64(f.calls), Unit: "W", Time: now,
	}), nil
}

func newFake() *fakeCollector {
	return &fakeCollector{method: "fake", min: 100 * time.Millisecond, cost: time.Millisecond}
}

func TestInitializeValidation(t *testing.T) {
	clock := simclock.New()
	if _, err := Initialize(Config{}, newFake()); err == nil {
		t.Error("nil clock accepted")
	}
	if _, err := Initialize(Config{Clock: clock}); err == nil {
		t.Error("no collectors accepted")
	}
	if _, err := Initialize(Config{Clock: clock, Interval: time.Millisecond}, newFake()); err == nil {
		t.Error("interval below hardware minimum accepted")
	}
	if _, err := Initialize(Config{Clock: clock}, newFake(), nil); err == nil {
		t.Error("nil collector accepted")
	}
}

func TestDefaultIntervalIsPerCollectorMinimum(t *testing.T) {
	// The paper: MonEQ's default mode polls "at the lowest polling
	// interval possible for the given hardware" — per mechanism. A 560 ms
	// EMON-like backend must not gate a 60 ms RAPL-like one sharing the
	// session.
	clock := simclock.New()
	slow := &fakeCollector{method: "slow", min: 560 * time.Millisecond, cost: time.Millisecond}
	fast := &fakeCollector{method: "fast", min: 60 * time.Millisecond, cost: time.Millisecond}
	m, err := Initialize(Config{Clock: clock}, slow, fast)
	if err != nil {
		t.Fatal(err)
	}
	if m.Interval() != 60*time.Millisecond {
		t.Fatalf("Interval = %v, want the fastest collector's 60ms", m.Interval())
	}
	clock.Advance(5600 * time.Millisecond)
	r, err := m.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	// 5.6 s: 10 slow polls, 93 fast polls — each at its own cadence.
	if slow.calls != 10 {
		t.Errorf("slow collector polled %d times, want 10", slow.calls)
	}
	if fast.calls != 93 {
		t.Errorf("fast collector polled %d times, want 93", fast.calls)
	}
	if r.Polls != 93 {
		t.Errorf("Polls = %d, want most-polled collector's 93", r.Polls)
	}
	if r.Samples != 103 {
		t.Errorf("Samples = %d, want 103", r.Samples)
	}
	slowS := m.Series("slow", core.Capability{Component: core.Total, Metric: core.Power})
	fastS := m.Series("fast", core.Capability{Component: core.Total, Metric: core.Power})
	if slowS == nil || slowS.Len() != 10 || fastS == nil || fastS.Len() != 93 {
		t.Fatalf("per-collector series: slow %v, fast %v", slowS, fastS)
	}
	// per-collector breakdown in the report
	if len(r.Collectors) != 2 {
		t.Fatalf("Collectors = %+v", r.Collectors)
	}
	for _, cr := range r.Collectors {
		want := map[string]time.Duration{"slow": 560 * time.Millisecond, "fast": 60 * time.Millisecond}[cr.Method]
		if cr.Interval != want {
			t.Errorf("%s interval = %v, want %v", cr.Method, cr.Interval, want)
		}
	}
}

func TestExplicitIntervalAppliesToAllCollectors(t *testing.T) {
	clock := simclock.New()
	slow := &fakeCollector{method: "slow", min: 500 * time.Millisecond, cost: time.Millisecond}
	fast := &fakeCollector{method: "fast", min: 100 * time.Millisecond, cost: time.Millisecond}
	m, err := Initialize(Config{Clock: clock, Interval: time.Second}, slow, fast)
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(10 * time.Second)
	r, _ := m.Finalize()
	if slow.calls != 10 || fast.calls != 10 {
		t.Errorf("calls = %d/%d, want 10/10 at the shared explicit interval", slow.calls, fast.calls)
	}
	if r.Interval != time.Second {
		t.Errorf("Interval = %v", r.Interval)
	}
}

func TestTwoLineUsage(t *testing.T) {
	// The paper's Listing 1: Initialize, run, Finalize.
	clock := simclock.New()
	m, err := Initialize(Config{Clock: clock, Node: "test"}, newFake())
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(10 * time.Second) // "user code"
	report, err := m.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if report.Polls != 100 { // 10 s at 100 ms
		t.Errorf("Polls = %d, want 100", report.Polls)
	}
	if report.Samples != 100 {
		t.Errorf("Samples = %d", report.Samples)
	}
	if report.AppRuntime != 10*time.Second {
		t.Errorf("AppRuntime = %v", report.AppRuntime)
	}
}

func TestPollingStopsAfterFinalize(t *testing.T) {
	clock := simclock.New()
	fake := newFake()
	m, _ := Initialize(Config{Clock: clock}, fake)
	clock.Advance(time.Second)
	if _, err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	calls := fake.calls
	clock.Advance(10 * time.Second)
	if fake.calls != calls {
		t.Errorf("collector called after Finalize: %d -> %d", calls, fake.calls)
	}
	if _, err := m.Finalize(); err == nil {
		t.Error("double Finalize accepted")
	}
}

func TestCollectionCostAccumulates(t *testing.T) {
	clock := simclock.New()
	m, _ := Initialize(Config{Clock: clock}, newFake())
	clock.Advance(5 * time.Second) // 50 polls x 1 ms
	r, _ := m.Finalize()
	if r.CollectionCost != 50*time.Millisecond {
		t.Errorf("CollectionCost = %v, want 50ms", r.CollectionCost)
	}
	if r.TotalCost != r.InitCost+r.CollectionCost+r.FinalizeCost {
		t.Error("TotalCost mismatch")
	}
}

func TestBackendFailureDoesNotKillRun(t *testing.T) {
	clock := simclock.New()
	flaky := &fakeCollector{method: "flaky", min: 100 * time.Millisecond, cost: time.Millisecond, failAt: 3}
	m, _ := Initialize(Config{Clock: clock}, flaky)
	clock.Advance(time.Second)
	r, err := m.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if r.Polls != 10 {
		t.Errorf("Polls = %d, want 10 (run continued after failure)", r.Polls)
	}
	if r.Samples != 9 {
		t.Errorf("Samples = %d, want 9 (one failed poll)", r.Samples)
	}
	if _, ok := m.Set().Meta["error/flaky"]; !ok {
		t.Error("failure not recorded in metadata")
	}
}

func TestTagging(t *testing.T) {
	clock := simclock.New()
	m, _ := Initialize(Config{Clock: clock}, newFake())
	clock.Advance(time.Second)
	m.StartTag("work-loop-1")
	clock.Advance(2 * time.Second)
	if err := m.EndTag("work-loop-1"); err != nil {
		t.Fatal(err)
	}
	if err := m.EndTag("never-opened"); err == nil {
		t.Error("EndTag on unknown tag accepted")
	}
	tag, ok := m.Set().TagWindow("work-loop-1")
	if !ok || tag.Start != time.Second || tag.End != 3*time.Second {
		t.Errorf("tag = %+v, %v", tag, ok)
	}
}

func TestSixLinesForThreeWorkLoops(t *testing.T) {
	// The paper: "if an application had three 'work loops' and a user
	// wanted to have separate profiles for each, all that is necessary is
	// a total of 6 lines of code."
	clock := simclock.New()
	m, _ := Initialize(Config{Clock: clock}, newFake())
	for i, name := range []string{"loop1", "loop2", "loop3"} {
		m.StartTag(name)
		clock.Advance(time.Duration(i+1) * time.Second)
		if err := m.EndTag(name); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"loop1", "loop2", "loop3"} {
		if _, ok := m.Set().TagWindow(name); !ok {
			t.Errorf("tag %s missing", name)
		}
	}
}

func TestOutputWritten(t *testing.T) {
	clock := simclock.New()
	var buf bytes.Buffer
	m, _ := Initialize(Config{Clock: clock, Node: "R00-M0-N00", Rank: 3, NumTasks: 32, Output: &buf}, newFake())
	clock.Advance(time.Second)
	m.StartTag("w")
	clock.Advance(time.Second)
	if err := m.EndTag("w"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta["node"] != "R00-M0-N00" || got.Meta["rank"] != "3" {
		t.Errorf("meta = %v", got.Meta)
	}
	if len(got.Series) != 1 || got.Series[0].Len() != 20 {
		t.Errorf("series = %v", got)
	}
	if len(got.Tags) != 1 {
		t.Errorf("tags = %v", got.Tags)
	}
}

func TestSeriesLookup(t *testing.T) {
	clock := simclock.New()
	m, _ := Initialize(Config{Clock: clock}, newFake())
	clock.Advance(time.Second)
	s := m.Series("fake", core.Capability{Component: core.Total, Metric: core.Power})
	if s == nil || s.Len() != 10 {
		t.Fatalf("Series lookup = %v", s)
	}
	if m.Series("nope", core.Capability{}) != nil {
		t.Error("bogus series lookup non-nil")
	}
}

// --- Integration with real vendor backends -----------------------------------

func TestWithEMONBackend(t *testing.T) {
	clock := simclock.New()
	machine := bgq.New(bgq.Config{Racks: 1, Seed: 42})
	card := machine.NodeCards()[0]
	machine.Run(workload.MMPS(5*time.Minute), 0, card)

	m, err := Initialize(Config{Clock: clock, Node: card.Name()}, card.EMON())
	if err != nil {
		t.Fatal(err)
	}
	if m.Interval() != bgq.EMONGeneration {
		t.Fatalf("default interval = %v, want EMON's 560ms", m.Interval())
	}
	clock.Advance(2 * time.Minute)
	r, err := m.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	// 2 min at 560 ms = 214 polls, each 1.10 ms
	if r.Polls < 210 || r.Polls > 215 {
		t.Errorf("Polls = %d", r.Polls)
	}
	wantCost := time.Duration(r.Polls) * bgq.EMONReadCost
	if r.CollectionCost != wantCost {
		t.Errorf("CollectionCost = %v, want %v", r.CollectionCost, wantCost)
	}
	// per-domain series recorded
	s := m.Series("EMON", core.Capability{Component: core.Total, Metric: core.Power})
	if s == nil || s.Len() != r.Polls {
		t.Fatalf("EMON total power series missing or short")
	}
	if s.MeanValue() < 1300 {
		t.Errorf("MMPS node card mean = %.0f W", s.MeanValue())
	}
}

func TestWithRAPLBackend(t *testing.T) {
	clock := simclock.New()
	socket := rapl.NewSocket(rapl.Config{Name: "s", Seed: 7})
	socket.Run(workload.GaussElim(30*time.Second), 5*time.Second)
	drv := socket.Driver(1)
	drv.Load()
	dev, err := drv.Open(0, msr.Root)
	if err != nil {
		t.Fatal(err)
	}
	col, err := rapl.NewMSRCollector(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Initialize(Config{Clock: clock, Interval: 100 * time.Millisecond}, col)
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(40 * time.Second)
	r, err := m.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if r.Polls != 400 {
		t.Errorf("Polls = %d", r.Polls)
	}
	s := m.Series("MSR", core.Capability{Component: core.Total, Metric: core.Power})
	if s == nil {
		t.Fatal("PKG power series missing")
	}
	loaded := s.Clip(10*time.Second, 30*time.Second)
	if mv := loaded.MeanValue(); mv < 40 || mv > 56 {
		t.Errorf("loaded PKG mean = %.1f W, want ~47", mv)
	}
}

func TestWithNVMLBackend(t *testing.T) {
	clock := simclock.New()
	dev := nvml.NewDevice(nvml.K20Spec(), 0, 3)
	dev.Run(workload.VectorAdd(10*time.Second, 60*time.Second), 0)
	lib := nvml.NewLibrary(dev)
	lib.Init()
	col, err := nvml.NewCollector(lib, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Initialize(Config{Clock: clock, Interval: 100 * time.Millisecond}, col)
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(80 * time.Second)
	if _, err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	s := m.Series("NVML", core.Capability{Component: core.Total, Metric: core.Power})
	hostPhase := s.Clip(2*time.Second, 8*time.Second).MeanValue()
	compute := s.Clip(30*time.Second, 60*time.Second).MeanValue()
	if compute < hostPhase+50 {
		t.Errorf("Fig. 5 shape missing: host %.0f W vs compute %.0f W", hostPhase, compute)
	}
	temp := m.Series("NVML", core.Capability{Component: core.Die, Metric: core.Temperature})
	if temp == nil || temp.Len() == 0 {
		t.Fatal("temperature series missing")
	}
}

func TestMultiDeviceSimultaneousProfiling(t *testing.T) {
	// The paper: "if a system has both a NVIDIA GPU as well as an Intel
	// Xeon Phi, profiling is possible for both of these devices at the
	// same time."
	clock := simclock.New()
	dev := nvml.NewDevice(nvml.K20Spec(), 0, 5)
	dev.Run(workload.NoopKernel(time.Minute), 0)
	lib := nvml.NewLibrary(dev)
	lib.Init()
	gpuCol, _ := nvml.NewCollector(lib, 0)

	socket := rapl.NewSocket(rapl.Config{Name: "s", Seed: 5})
	drv := socket.Driver(1)
	drv.Load()
	msrDev, _ := drv.Open(0, msr.Root)
	cpuCol, _ := rapl.NewMSRCollector(msrDev, 0)

	m, err := Initialize(Config{Clock: clock, Interval: 100 * time.Millisecond}, gpuCol, cpuCol)
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(10 * time.Second)
	r, _ := m.Finalize()
	if m.Series("NVML", core.Capability{Component: core.Total, Metric: core.Power}) == nil {
		t.Error("GPU series missing")
	}
	if m.Series("MSR", core.Capability{Component: core.Total, Metric: core.Power}) == nil {
		t.Error("CPU series missing")
	}
	wantCost := time.Duration(r.Polls) * (nvml.QueryCost + msr.ReadCost)
	if r.CollectionCost != wantCost {
		t.Errorf("multi-device CollectionCost = %v, want %v", r.CollectionCost, wantCost)
	}
}

// --- Overhead model (Table III) ----------------------------------------------

func TestOverheadModelMatchesTable3Shape(t *testing.T) {
	// Table III: init roughly constant and ~3 ms; finalize flat to 512
	// nodes then jumping ~2x at 1024; collection excluded (exact, tested
	// above).
	i32 := initCostModel(32, 1)
	i512 := initCostModel(512, 1)
	i1024 := initCostModel(1024, 1)
	for _, c := range []struct {
		got  time.Duration
		want float64 // seconds from Table III
	}{{i32, 0.0027}, {i512, 0.0032}, {i1024, 0.0033}} {
		if math.Abs(c.got.Seconds()-c.want) > 0.001 {
			t.Errorf("init cost = %v, paper %v s", c.got, c.want)
		}
	}
	samples := 362 * 22 // ~202 s at 560 ms, 22 readings per EMON poll
	f32 := finalizeCostModel(32, samples)
	f512 := finalizeCostModel(512, samples)
	f1024 := finalizeCostModel(1024, samples)
	if math.Abs(f32.Seconds()-0.151) > 0.02 {
		t.Errorf("finalize(32) = %v, paper 0.151 s", f32)
	}
	if math.Abs(f512.Seconds()-0.155) > 0.02 {
		t.Errorf("finalize(512) = %v, paper 0.155 s", f512)
	}
	if math.Abs(f1024.Seconds()-0.3347) > 0.05 {
		t.Errorf("finalize(1024) = %v, paper 0.3347 s", f1024)
	}
	if !(f1024 > f512 && f512 >= f32) {
		t.Error("finalize cost not increasing with scale")
	}
}

func TestTable3EndToEnd(t *testing.T) {
	// Full Table III reproduction at one scale: the toy fixed-runtime app
	// on a BG/Q node card at the default interval.
	clock := simclock.New()
	machine := bgq.New(bgq.Config{Racks: 1, Seed: 1})
	card := machine.NodeCards()[0]
	machine.Run(workload.FixedRuntime(202740*time.Millisecond), 0, card)
	m, err := Initialize(Config{Clock: clock, Node: card.Name(), NumTasks: 1024}, card.EMON())
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(202740 * time.Millisecond)
	r, err := m.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	// Collection: ~362 polls x 1.10 ms = ~0.398 s (paper: 0.3871 s)
	if r.CollectionCost < 380*time.Millisecond || r.CollectionCost > 410*time.Millisecond {
		t.Errorf("collection cost = %v, paper 0.3871 s", r.CollectionCost)
	}
	// Total ~0.73 s at 1K nodes; overhead ~0.4 %
	if r.TotalCost < 500*time.Millisecond || r.TotalCost > 950*time.Millisecond {
		t.Errorf("total cost = %v, paper 0.7251 s", r.TotalCost)
	}
	frac := r.OverheadFraction()
	if frac < 0.002 || frac > 0.006 {
		t.Errorf("overhead fraction = %v, paper ~0.4%%", frac)
	}
}

func TestReportOverheadFractionZeroRuntime(t *testing.T) {
	if (Report{}).OverheadFraction() != 0 {
		t.Error("zero runtime should give zero fraction")
	}
}

func TestOutputIsDeterministic(t *testing.T) {
	run := func() string {
		clock := simclock.New()
		machine := bgq.New(bgq.Config{Racks: 1, Seed: 11})
		card := machine.NodeCards()[0]
		machine.Run(workload.MMPS(time.Minute), 0, card)
		var buf bytes.Buffer
		m, _ := Initialize(Config{Clock: clock, Node: card.Name(), Output: &buf}, card.EMON())
		clock.Advance(time.Minute)
		if _, err := m.Finalize(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatal("MonEQ output not byte-identical across identical runs")
	}
}

func TestMetadataRecordsCollectors(t *testing.T) {
	clock := simclock.New()
	m, _ := Initialize(Config{Clock: clock, Node: "n"}, newFake())
	if v := m.Set().Meta["collector/fake"]; !strings.Contains(v, "RAPL") {
		t.Errorf("collector metadata = %q", v)
	}
}
