package moneq

// Mixed multi-backend sessions: the paper's premise is that a node may
// carry several vendor mechanisms at once, each with its own cadence.
// These tests drive RAPL, NVML, and the MIC daemon through one monitor
// built entirely from the core registry, and pin the zero-allocation
// guarantee of the steady-state poll path.

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"envmon/internal/core"
	"envmon/internal/mic"
	"envmon/internal/micras"
	"envmon/internal/nvml"
	"envmon/internal/rapl"
	"envmon/internal/simclock"
	"envmon/internal/trace"
	"envmon/internal/workload"
)

var powerCap = core.Capability{Component: core.Total, Metric: core.Power}

// buildMixed assembles RAPL MSR + NVML + MICRAS collectors via the
// registry — no vendor constructor is called directly.
func buildMixed(t *testing.T) []core.Collector {
	t.Helper()
	socket := rapl.NewSocket(rapl.Config{Name: "s0", Seed: 3})
	socket.Run(workload.GaussElim(30*time.Second), 0)

	dev := nvml.NewDevice(nvml.K20Spec(), 0, 3)
	dev.Run(workload.VectorAdd(10*time.Second, 60*time.Second), 0)
	lib := nvml.NewLibrary(dev)
	lib.Init()

	card := mic.New(mic.Config{Index: 0, Seed: 9})
	card.Run(workload.FixedRuntime(time.Minute), 0)
	fs := micras.NewFS(card)

	var set core.DeviceSet
	set.Attach(core.BackendKey{Platform: core.RAPL, Method: "MSR"}, socket)
	set.Attach(core.BackendKey{Platform: core.NVML, Method: "NVML"}, lib)
	set.Attach(core.BackendKey{Platform: core.XeonPhi, Method: "MICRAS daemon"}, fs)
	cols, err := set.Collectors(core.DefaultRegistry)
	if err != nil {
		t.Fatal(err)
	}
	return cols
}

func TestMixedBackendSession(t *testing.T) {
	clock := simclock.New()
	cols := buildMixed(t)
	m, err := Initialize(Config{Clock: clock, Node: "mixed0"}, cols...)
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(6 * time.Second)
	r, err := m.Finalize()
	if err != nil {
		t.Fatal(err)
	}

	// Each mechanism polls at its own hardware minimum: MSR and NVML at
	// 60 ms (100 polls over 6 s), the MIC daemon at the 50 ms SMC refresh
	// (120 polls).
	want := map[string]int{"MSR": 100, "NVML": 100, "MICRAS daemon": 120}
	if len(r.Collectors) != 3 {
		t.Fatalf("Collectors = %+v", r.Collectors)
	}
	for _, cr := range r.Collectors {
		if cr.Polls != want[cr.Method] {
			t.Errorf("%s polls = %d, want %d", cr.Method, cr.Polls, want[cr.Method])
		}
		if cr.Errors != 0 {
			t.Errorf("%s errors = %d", cr.Method, cr.Errors)
		}
	}
	if r.Polls != 120 {
		t.Errorf("Polls = %d, want 120", r.Polls)
	}

	// Per-method series land under their own method prefix. The MSR first
	// poll only primes the counters, so its series run one short.
	if s := m.Series("MSR", powerCap); s == nil || s.Len() != 99 {
		t.Errorf("MSR total power series = %v", s)
	}
	if s := m.Series("NVML", powerCap); s == nil || s.Len() != 100 {
		t.Errorf("NVML total power series = %v", s)
	}
	if s := m.Series("MICRAS daemon", powerCap); s == nil || s.Len() != 120 {
		t.Errorf("MICRAS total power series = %v", s)
	}

	// Collection cost is per-mechanism cadence times per-query cost.
	wantCost := 100*msrReadCost() + 100*nvml.QueryCost + 120*mic.DaemonQueryCost
	if r.CollectionCost != wantCost {
		t.Errorf("CollectionCost = %v, want %v", r.CollectionCost, wantCost)
	}
}

// msrReadCost avoids importing msr just for one constant in assertions.
func msrReadCost() time.Duration {
	socket := rapl.NewSocket(rapl.Config{Name: "cost", Seed: 1})
	col, err := core.Build(core.BackendKey{Platform: core.RAPL, Method: "MSR"}, socket)
	if err != nil {
		panic(err)
	}
	return col.Cost()
}

// deadCollector fails every Collect from call failFrom on.
type deadCollector struct {
	fakeCollector
	failFrom int
}

func (d *deadCollector) CollectInto(buf []core.Reading, now time.Duration) ([]core.Reading, error) {
	d.calls++
	if d.calls >= d.failFrom {
		return buf[:0], errors.New("device fell off the bus")
	}
	return append(buf[:0], core.Reading{Cap: powerCap, Value: 1, Unit: "W", Time: now}), nil
}

func TestFailingBackendDegradesGracefully(t *testing.T) {
	clock := simclock.New()
	dead := &deadCollector{fakeCollector: fakeCollector{method: "dying", min: 100 * time.Millisecond, cost: time.Millisecond}, failFrom: 6}
	healthy := &fakeCollector{method: "healthy", min: 50 * time.Millisecond, cost: time.Millisecond}
	m, err := Initialize(Config{Clock: clock}, dead, healthy)
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Second)
	r, err := m.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	// The dying backend keeps being polled (and failing) without touching
	// the healthy one's cadence or samples.
	if s := m.Series("healthy", powerCap); s == nil || s.Len() != 40 {
		t.Errorf("healthy series = %v, want 40 samples", s)
	}
	if s := m.Series("dying", powerCap); s == nil || s.Len() != 5 {
		t.Errorf("dying series = %v, want the 5 pre-failure samples", s)
	}
	if _, ok := m.Set().Meta["error/dying"]; !ok {
		t.Error("failure not recorded in metadata")
	}
	for _, cr := range r.Collectors {
		switch cr.Method {
		case "dying":
			if cr.Polls != 20 || cr.Errors != 15 || cr.Samples != 5 {
				t.Errorf("dying report = %+v", cr)
			}
		case "healthy":
			if cr.Polls != 40 || cr.Errors != 0 || cr.Samples != 40 {
				t.Errorf("healthy report = %+v", cr)
			}
		}
	}
}

// failingWriter errors after n bytes, simulating a full disk mid-write.
type failingWriter struct{ n int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("no space left on device")
	}
	if len(p) > w.n {
		p = p[:w.n]
	}
	w.n -= len(p)
	return len(p), nil
}

func TestFinalizeSinkErrorReturnsReport(t *testing.T) {
	clock := simclock.New()
	m, err := Initialize(Config{Clock: clock, Node: "n0", Output: &failingWriter{n: 64}}, newFake())
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Second)
	r, err := m.Finalize()
	if err == nil {
		t.Fatal("sink failure not reported")
	}
	// The report survives the sink failure...
	if r.Polls != 10 || r.Samples != 10 || r.AppRuntime != time.Second {
		t.Errorf("report lost on sink failure: %+v", r)
	}
	// ...polling is still stopped...
	clock.Advance(time.Second)
	if m.Series("fake", powerCap).Len() != 10 {
		t.Error("polling continued after failed Finalize")
	}
	// ...and the documented retry path recovers the data.
	var buf bytes.Buffer
	if err := m.Flush(CSVSink{W: &buf}); err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta["node"] != "n0" || got.Series[0].Len() != 10 {
		t.Errorf("flushed set = %v", got)
	}
}

func TestFlushBeforeFinalizeRejected(t *testing.T) {
	clock := simclock.New()
	m, _ := Initialize(Config{Clock: clock}, newFake())
	if err := m.Flush(CSVSink{W: &bytes.Buffer{}}); err == nil {
		t.Error("Flush before Finalize accepted")
	}
	if _, err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
}

func TestJSONSinkRoundTrip(t *testing.T) {
	clock := simclock.New()
	var csvBuf, jsonBuf bytes.Buffer
	m, err := Initialize(Config{
		Clock: clock, Node: "j0",
		Output: &csvBuf,
		Sinks:  []Sink{JSONSink{W: &jsonBuf}},
	}, newFake())
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Second)
	if _, err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(strings.TrimSpace(jsonBuf.String()), "{") {
		t.Fatalf("JSON sink wrote %q", jsonBuf.String())
	}
	fromJSON, err := trace.ReadJSON(bytes.NewReader(jsonBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	fromCSV, err := trace.ReadCSV(&csvBuf)
	if err != nil {
		t.Fatal(err)
	}
	if fromJSON.Meta["node"] != "j0" || len(fromJSON.Series) != len(fromCSV.Series) {
		t.Errorf("JSON set %v != CSV set %v", fromJSON, fromCSV)
	}
	if fromJSON.Series[0].Len() != fromCSV.Series[0].Len() {
		t.Error("sample counts differ across sinks")
	}
}

func TestSteadyStatePollZeroAllocs(t *testing.T) {
	// The acceptance bar of the batch-collect refactor: once the series
	// buffers exist, an entire poll round — timer fire, CollectInto on a
	// real MSR backend, store append — performs zero allocations.
	clock := simclock.New()
	socket := rapl.NewSocket(rapl.Config{Name: "a0", Seed: 11})
	socket.Run(workload.FixedRuntime(time.Hour), 0)
	col, err := core.Build(core.BackendKey{Platform: core.RAPL, Method: "MSR"}, socket)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Initialize(Config{Clock: clock, PreallocPolls: 4096}, col)
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Second) // warm up: series created, buffers grown
	if n := testing.AllocsPerRun(200, func() {
		clock.Advance(60 * time.Millisecond)
	}); n != 0 {
		t.Errorf("steady-state poll = %v allocs/op, want 0", n)
	}
	if _, err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
}
