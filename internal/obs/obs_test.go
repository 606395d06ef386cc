package obs

import (
	"strings"
	"testing"
	"time"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("envmon_test_total", "A test counter.", "method", "MSR")
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Fatalf("counter = %d", c.Value())
	}
	r.GaugeFunc("envmon_test_func", "A func gauge.", func() float64 { return 7 })
	r.CounterFunc("envmon_test_fn_total", "A func counter.", func() float64 { return 11 })
	fc := r.FloatCounter("envmon_test_seconds_total", "A float counter.")
	fc.Add(0.25)
	fc.Add(0.25)

	out := render(t, r)
	for _, want := range []string{
		"# HELP envmon_test_total A test counter.",
		"# TYPE envmon_test_total counter",
		`envmon_test_total{method="MSR"} 3`,
		"# TYPE envmon_test_func gauge",
		"envmon_test_func 7",
		"# TYPE envmon_test_fn_total counter",
		"envmon_test_fn_total 11",
		"envmon_test_seconds_total 0.5",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestSameHandleAndTypeConflict(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("envmon_dup_total", "dup", "k", "v")
	b := r.Counter("envmon_dup_total", "ignored help", "k", "v")
	if a != b {
		t.Error("same name+labels returned distinct handles")
	}
	defer func() {
		if recover() == nil {
			t.Error("redeclaring a counter as a gauge did not panic")
		}
	}()
	r.GaugeFunc("envmon_dup_total", "conflict", func() float64 { return 0 })
}

func TestLabelOrderingAndEscaping(t *testing.T) {
	r := NewRegistry()
	// Keys are sorted at intern time regardless of call order.
	r.Counter("envmon_lbl_total", "l", "zeta", "1", "alpha", "2").Inc()
	out := render(t, r)
	if !strings.Contains(out, `envmon_lbl_total{alpha="2",zeta="1"} 1`) {
		t.Errorf("labels not sorted:\n%s", out)
	}
	r2 := NewRegistry()
	r2.Counter("envmon_esc_total", "e", "detail", "a\"b\\c\nd").Inc()
	out2 := render(t, r2)
	if !strings.Contains(out2, `envmon_esc_total{detail="a\"b\\c\nd"} 1`) {
		t.Errorf("escaping wrong:\n%s", out2)
	}
}

func TestDeterministicRenderOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("envmon_b_total", "b").Inc()
	r.Counter("envmon_a_total", "a", "m", "y").Inc()
	r.Counter("envmon_a_total", "a", "m", "x").Inc()
	first := render(t, r)
	for i := 0; i < 5; i++ {
		if got := render(t, r); got != first {
			t.Fatalf("render not deterministic:\n%s\nvs\n%s", first, got)
		}
	}
	ia := strings.Index(first, "envmon_a_total{m=\"x\"}")
	ib := strings.Index(first, "envmon_a_total{m=\"y\"}")
	ic := strings.Index(first, "envmon_b_total")
	if !(ia < ib && ib < ic) {
		t.Errorf("order wrong: a{x}=%d a{y}=%d b=%d", ia, ib, ic)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("envmon_lat_seconds", "latency", []float64{0.01, 0.1, 1}, "stage", "query")
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if got := h.Sum(); got < 5.6 || got > 5.61 {
		t.Errorf("sum = %v", got)
	}
	out := render(t, r)
	for _, want := range []string{
		`envmon_lat_seconds_bucket{le="0.01",stage="query"} 1`,
		`envmon_lat_seconds_bucket{le="0.1",stage="query"} 3`,
		`envmon_lat_seconds_bucket{le="1",stage="query"} 4`,
		`envmon_lat_seconds_bucket{le="+Inf",stage="query"} 5`,
		`envmon_lat_seconds_count{stage="query"} 5`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("histogram exposition missing %q:\n%s", want, out)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "nil registry")
	c.Inc()
	h := r.Histogram("x_seconds", "nil", nil)
	h.Observe(1)
	r.GaugeFunc("y", "nil", func() float64 { return 0 })
	if err := r.WriteText(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	var tr *Tracer
	st := tr.Stage("collect")
	st.Observe(time.Second, time.Second)
	st.Begin().End(0)
	var sl *SlowLog
	sl.Observe("query", time.Hour, 0, nil)
	if sl.Snapshot() != nil || sl.Total() != 0 || sl.Threshold() != 0 {
		t.Error("nil slowlog not inert")
	}
}

func TestTracerStages(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(r)
	s := tr.Stage("compaction")
	if s2 := tr.Stage("compaction"); s2 != s {
		t.Error("stage not interned")
	}
	s.Observe(20*time.Millisecond, 5*time.Millisecond)
	sp := s.Begin()
	sp.End(0)
	out := render(t, r)
	for _, want := range []string{
		`envmon_pipeline_ops_total{stage="compaction"} 2`,
		`envmon_pipeline_sim_seconds_total{stage="compaction"} 0.005`,
		`envmon_pipeline_seconds_bucket{le="+Inf",stage="compaction"} 2`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("tracer exposition missing %q:\n%s", want, out)
		}
	}
}

func TestSlowLog(t *testing.T) {
	r := NewRegistry()
	l := NewSlowLog(r, 10*time.Millisecond, 3)
	if l.Observe("query", 5*time.Millisecond, 0, func() string {
		t.Error("detail built for a fast op")
		return ""
	}) {
		t.Error("fast op recorded")
	}
	for i, d := range []time.Duration{11, 12, 13, 14} {
		if !l.Observe("query", d*time.Millisecond, 0, func() string { return string(rune('a' + i)) }) {
			t.Fatalf("slow op %d not recorded", i)
		}
	}
	l.Observe("compaction", 20*time.Millisecond, time.Second, nil)
	ops := l.Snapshot()
	if len(ops) != 3 {
		t.Fatalf("snapshot len = %d", len(ops))
	}
	// Newest first; the ring evicted the two oldest of the five records.
	if ops[0].Kind != "compaction" || ops[0].Sim != time.Second {
		t.Errorf("ops[0] = %+v", ops[0])
	}
	if ops[1].Detail != "d" || ops[2].Detail != "c" {
		t.Errorf("ring order wrong: %+v", ops)
	}
	if l.Total() != 5 {
		t.Errorf("total = %d", l.Total())
	}
	out := render(t, r)
	if !strings.Contains(out, `envmon_slow_ops_total{kind="query"} 4`) ||
		!strings.Contains(out, `envmon_slow_ops_total{kind="compaction"} 1`) {
		t.Errorf("slow-op counters missing:\n%s", out)
	}
	// Threshold 0 disables recording entirely.
	off := NewSlowLog(nil, 0, 4)
	if off.Observe("query", time.Hour, 0, nil) {
		t.Error("disabled slowlog recorded")
	}
}

// TestExpositionText pins the whole rendering of one registry holding
// every kind of child, byte for byte: family order by name whatever the
// registration order, child order by label string, label escaping, HELP
// and TYPE lines, histogram buckets with le leading, and number spelling.
func TestExpositionText(t *testing.T) {
	r := NewRegistry()
	r.Histogram("envmon_z_seconds", "Latency.", []float64{0.1, 1}, "stage", "query").Observe(0.5)
	c := r.Counter("envmon_c_total", "Labeled counter.", "method", "MSR")
	c.Add(3)
	r.Counter("envmon_c_total", "Labeled counter.", "method", `a"b\c`+"\nd").Inc()
	r.Counter("envmon_b_total", "Plain counter.").Inc()
	r.FloatCounter("envmon_f_seconds_total", "Float counter.").Add(0.25)
	r.GaugeFunc("envmon_g", "Func gauge.", func() float64 { return 1.5 }, "state", "open")
	r.CounterFunc("envmon_a_total", "Func counter.", func() float64 { return 7 })

	const want = `# HELP envmon_a_total Func counter.
# TYPE envmon_a_total counter
envmon_a_total 7
# HELP envmon_b_total Plain counter.
# TYPE envmon_b_total counter
envmon_b_total 1
# HELP envmon_c_total Labeled counter.
# TYPE envmon_c_total counter
envmon_c_total{method="MSR"} 3
envmon_c_total{method="a\"b\\c\nd"} 1
# HELP envmon_f_seconds_total Float counter.
# TYPE envmon_f_seconds_total counter
envmon_f_seconds_total 0.25
# HELP envmon_g Func gauge.
# TYPE envmon_g gauge
envmon_g{state="open"} 1.5
# HELP envmon_z_seconds Latency.
# TYPE envmon_z_seconds histogram
envmon_z_seconds_bucket{le="0.1",stage="query"} 0
envmon_z_seconds_bucket{le="1",stage="query"} 1
envmon_z_seconds_bucket{le="+Inf",stage="query"} 1
envmon_z_seconds_sum{stage="query"} 0.5
envmon_z_seconds_count{stage="query"} 1
`
	if got := render(t, r); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// TestHandleClashesPanic: a func metric registers once, and a child keeps
// the kind it was made as; any other second declaration panics.
func TestHandleClashesPanic(t *testing.T) {
	fn := func() float64 { return 0 }
	for name, clash := range map[string]func(r *Registry){
		"gauge func twice":           func(r *Registry) { r.GaugeFunc("envmon_g", "g", fn); r.GaugeFunc("envmon_g", "g", fn) },
		"counter func twice":         func(r *Registry) { r.CounterFunc("envmon_c", "c", fn); r.CounterFunc("envmon_c", "c", fn) },
		"counter then float counter": func(r *Registry) { r.Counter("envmon_c", "c"); r.FloatCounter("envmon_c", "c") },
		"counter then counter func":  func(r *Registry) { r.Counter("envmon_c", "c"); r.CounterFunc("envmon_c", "c", fn) },
		"counter func then counter":  func(r *Registry) { r.CounterFunc("envmon_c", "c", fn); r.Counter("envmon_c", "c") },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			clash(NewRegistry())
		})
	}
}
