package client

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"envmon/internal/obs"
	"envmon/internal/telemetry"
	"envmon/internal/telemetry/httpapi"
)

// startInstrumentedDaemon is startDaemon with the observability layer
// wired, the way cmd/envmond does it.
func startInstrumentedDaemon(t *testing.T) (*Client, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	tr := obs.NewTracer(reg)
	st := telemetry.New(telemetry.Options{Shards: 4})
	st.Instrument(reg, tr, obs.NewSlowLog(reg, 100*time.Millisecond, 64))
	k := telemetry.SeriesKey{Node: "n00", Backend: "MSR", Domain: "Total Power"}
	for s := 0; s < 50; s++ {
		if err := st.Ingest(k, "W", time.Duration(s)*time.Second, 118); err != nil {
			t.Fatal(err)
		}
	}
	api := httpapi.New(st, nil)
	api.Instrument(reg)
	srv := httptest.NewServer(api)
	t.Cleanup(srv.Close)
	// Daemon-level gauges envtop's summary reads.
	reg.GaugeFunc("envmon_uptime_seconds", "Daemon uptime.", func() float64 { return 10 })
	for state, n := range map[string]float64{"closed": 3, "open": 1, "half-open": 0} {
		n := n
		reg.GaugeFunc("envmon_breaker_sources", "Chain sources by breaker state.", func() float64 { return n }, "state", state)
	}
	st.Query(telemetry.Query{Domain: "Total Power"}) // populate the query histogram
	return New(srv.URL), reg
}

func TestMetricsFetchAndSummarize(t *testing.T) {
	cl, _ := startInstrumentedDaemon(t)
	snap, err := cl.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := snap.Value("envmon_ingest_samples_total"); !ok || v != 50 {
		t.Errorf("ingest samples = %v, %v", v, ok)
	}
	if v, ok := snap.Value(`envmon_breaker_sources{state="open"}`); !ok || v != 1 {
		t.Errorf("open breakers = %v, %v", v, ok)
	}
	if sum, n := snap.Sum("envmon_breaker_sources"); sum != 4 || n != 3 {
		t.Errorf("breaker sum = %v over %d samples", sum, n)
	}
	if _, ok := snap.Quantile("envmon_pipeline_seconds", `stage="query"`, 0.99); !ok {
		t.Error("query p99 unavailable despite a recorded query")
	}

	s := SummarizeObs(snap)
	if s.Samples != 50 || s.Rate != 5 {
		t.Errorf("summary = %+v", s)
	}
	if s.BreakersOpen != 1 || s.BreakersClosed != 3 {
		t.Errorf("summary breakers = %+v", s)
	}
	if s.QueryP99 <= 0 {
		t.Errorf("summary p99 = %v", s.QueryP99)
	}
	line := s.String()
	for _, want := range []string{"ingest 50 samples", "(5/s)", "3 closed", "1 OPEN", "query p99"} {
		if !strings.Contains(line, want) {
			t.Errorf("header %q missing %q", line, want)
		}
	}
}

func TestMetricsAgainstUninstrumentedDaemon(t *testing.T) {
	cl := startDaemon(t) // no Instrument: /metrics is 404
	if _, err := cl.Metrics(context.Background()); err == nil {
		t.Fatal("want error from daemon without /metrics")
	}
}

func TestParseMetricsSkipsCommentsAndJunk(t *testing.T) {
	snap, err := ParseMetrics(strings.NewReader(`# HELP x_total help text
# TYPE x_total counter
x_total{a="b c",d="e"} 42
x_total 7

not-a-sample
y_seconds_bucket{le="+Inf"} 3
y_gauge 2.5e3
`))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := snap.Value(`x_total{a="b c",d="e"}`); !ok || v != 42 {
		t.Errorf("labeled sample = %v, %v", v, ok)
	}
	if v, ok := snap.Value("x_total"); !ok || v != 7 {
		t.Errorf("bare sample = %v, %v", v, ok)
	}
	if v, ok := snap.Value("y_gauge"); !ok || v != 2500 {
		t.Errorf("scientific value = %v, %v", v, ok)
	}
	if sum, n := snap.Sum("x_total"); sum != 49 || n != 2 {
		t.Errorf("sum = %v over %d", sum, n)
	}
}

func TestQuantileFromRenderedHistogram(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("lat_seconds", "l", []float64{0.01, 0.1, 1}, "stage", "query")
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	snap, err := ParseMetrics(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if q, ok := snap.Quantile("lat_seconds", `stage="query"`, 0.5); !ok || q != 0.1 {
		t.Errorf("p50 = %v, %v (want 0.1)", q, ok)
	}
	// 5 observations: rank 4 (0.99*5 truncated) lands in the le=1 bucket.
	if q, ok := snap.Quantile("lat_seconds", `stage="query"`, 0.99); !ok || q != 1 {
		t.Errorf("p99 = %v, %v (want 1)", q, ok)
	}
}
