package httpapi

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"envmon/internal/telemetry"
)

func testStore(t *testing.T) *telemetry.Store {
	t.Helper()
	st := telemetry.New(telemetry.Options{Shards: 4})
	for i, node := range []string{"n00", "n01", "n02"} {
		k := telemetry.SeriesKey{Node: node, Backend: "MSR", Domain: "Total Power"}
		for s := 0; s < 10; s++ {
			at := time.Duration(s) * time.Second
			if err := st.Ingest(k, "W", at, 100+10*float64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return st
}

func get(t *testing.T, srv *Server, target string, wantStatus int, doc any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, target, nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != wantStatus {
		t.Fatalf("GET %s: status %d, want %d (body %s)", target, rec.Code, wantStatus, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("GET %s: Content-Type = %q", target, ct)
	}
	if doc != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), doc); err != nil {
			t.Fatalf("GET %s: decoding: %v", target, err)
		}
	}
}

func TestHealthz(t *testing.T) {
	srv := New(testStore(t), func() time.Duration { return 90 * time.Second })
	var h Health
	get(t, srv, "/healthz", http.StatusOK, &h)
	if h.Status != "ok" || h.Series != 3 || h.Samples != 30 {
		t.Errorf("health = %+v", h)
	}
	if h.SimNowNS != int64(90*time.Second) {
		t.Errorf("sim_now_ns = %d", h.SimNowNS)
	}
	// nil now func reports zero rather than panicking.
	var h2 Health
	get(t, New(testStore(t), nil), "/healthz", http.StatusOK, &h2)
	if h2.SimNowNS != 0 {
		t.Errorf("nil-now sim_now_ns = %d", h2.SimNowNS)
	}
}

func TestSeriesEndpoint(t *testing.T) {
	srv := New(testStore(t), nil)
	var out SeriesResult
	get(t, srv, "/series", http.StatusOK, &out)
	if len(out.Series) != 3 {
		t.Fatalf("series = %+v", out.Series)
	}
	si := out.Series[0]
	if si.Node != "n00" || si.Backend != "MSR" || si.Domain != "Total Power" ||
		si.Unit != "W" || si.Samples != 10 || si.NewestNS != int64(9*time.Second) {
		t.Errorf("series[0] = %+v", si)
	}
}

func TestQueryEndpoint(t *testing.T) {
	srv := New(testStore(t), nil)

	var out QueryResult
	get(t, srv, "/query?node=n01&res=1s&agg=mean&from=2s&to=5s", http.StatusOK, &out)
	if len(out.Frames) != 1 {
		t.Fatalf("frames = %+v", out.Frames)
	}
	f := out.Frames[0]
	if f.Node != "n01" || f.Resolution != "1s" || len(f.TNS) != 3 || len(f.V) != 3 || f.Buckets == nil || len(f.Count) != 3 {
		t.Fatalf("frame = %+v", f)
	}
	if f.Reduced == nil || *f.Reduced != 110 {
		t.Errorf("reduced = %v, want 110", f.Reduced)
	}
	if f.TNS[0] != 2*time.Second || f.Count[0] != 1 {
		t.Errorf("first bucket at %v of %d samples", f.TNS[0], f.Count[0])
	}
	// No aggregate requested: reduced omitted from the JSON.
	req := httptest.NewRequest(http.MethodGet, "/query?node=n01", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	var raw struct {
		Frames []map[string]json.RawMessage `json:"frames"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw.Frames[0]["reduced"]; ok {
		t.Error("reduced present without an aggregate")
	}
}

func TestTopKEndpoint(t *testing.T) {
	srv := New(testStore(t), nil)
	var out TopKResult
	get(t, srv, "/topk?k=2&res=1s", http.StatusOK, &out)
	if out.Domain != "Total Power" || len(out.Nodes) != 2 {
		t.Fatalf("topk = %+v", out)
	}
	if out.Nodes[0].Node != "n02" || out.Nodes[0].Watts != 120 {
		t.Errorf("nodes[0] = %+v", out.Nodes[0])
	}
	if out.TotalWatts != 100+110+120 {
		t.Errorf("total = %v", out.TotalWatts)
	}
}

func TestBadRequests(t *testing.T) {
	srv := New(testStore(t), nil)
	for _, target := range []string{
		"/query?from=yesterday",
		"/query?res=5m",
		"/query?agg=p99",
		"/topk?k=lots",
		"/topk?to=late",
	} {
		var eb ErrorBody
		get(t, srv, target, http.StatusBadRequest, &eb)
		if eb.Error == "" {
			t.Errorf("GET %s: empty error body", target)
		}
	}
	// Non-GET methods are rejected wholesale.
	req := httptest.NewRequest(http.MethodPost, "/query", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /query: status %d, want 405", rec.Code)
	}
}

// discard is a ResponseWriter that keeps nothing of the body.
type discard http.Header

func (d discard) Header() http.Header       { return http.Header(d) }
func (discard) Write(b []byte) (int, error) { return len(b), nil }
func (discard) WriteHeader(int)             {}

// TestRawHistoryAllocPerPoint is the gate on the raw /query path: a
// sample travels from the store to the socket as its two columns, 16 B,
// and nothing else is allocated per sample — no FramePoint, no copy of
// the columns, no body (the encode buffer is pooled). The least of a few
// runs counts: a collection may empty the pool before any one of them.
func TestRawHistoryAllocPerPoint(t *testing.T) {
	const samples, runs = 10240, 5
	st := telemetry.New(telemetry.Options{Shards: 1, RawCapacity: samples})
	k := telemetry.SeriesKey{Node: "n00", Backend: "MSR", Domain: "Total Power"}
	for i := range samples {
		if err := st.Ingest(k, "W", time.Duration(i)*50*time.Millisecond, 100+float64(i%400)/4); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(st, nil)
	reqs := make([]*http.Request, runs+1)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodGet, "/query?node=n00", nil)
	}
	w := discard{}
	srv.ServeHTTP(w, reqs[runs]) // warms the pooled encode buffer
	perSample := math.Inf(1)
	for _, r := range reqs[:runs] {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		srv.ServeHTTP(w, r)
		runtime.ReadMemStats(&after)
		perSample = min(perSample, float64(after.TotalAlloc-before.TotalAlloc)/samples)
	}
	t.Logf("%.1f B allocated per raw sample served", perSample)
	if perSample > 24 {
		t.Errorf("a raw /query allocates %.1f B per sample, gate 24 (the columns take 16)", perSample)
	}
}

// TestWideQueryAllocPerFrame is the gate on the client's side of a
// fleet-wide /query, the request a power-capping controller sends every
// tick: 512 frames of 4 raw points, agg=last, served from 2048 series, and
// decoded. A decoded frame costs its node label and its share of the frame
// list and of the document's column blocks — one allocation, not one per
// column. The least of a few runs counts, as in TestRawHistoryAllocPerPoint.
func TestWideQueryAllocPerFrame(t *testing.T) {
	const nodes, domains, points, runs = 512, 4, 8, 5
	st := telemetry.New(telemetry.Options{Shards: 8, RawCapacity: points, RollupCapacity: 4})
	for node := range nodes {
		for d := range domains {
			k := telemetry.SeriesKey{Node: fmt.Sprintf("n%04d", node), Backend: "rack", Domain: fmt.Sprintf("domain-%d", d)}
			for s := 1; s <= points; s++ {
				if err := st.Ingest(k, "W", time.Duration(s)*time.Second, 100+float64((node*7919+d*31+s)%2000)/4); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	rec := httptest.NewRecorder()
	New(st, nil).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query?domain=domain-0&agg=last&from=5s", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	body := rec.Body.Bytes()
	bytesPer, mallocsPer := math.Inf(1), math.Inf(1)
	for range runs {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		doc, err := DecodeQueryResult(body)
		runtime.ReadMemStats(&after)
		if err != nil || len(doc.Frames) != nodes || len(doc.Frames[0].V) != points/2 {
			t.Fatalf("decoded %d frames (err %v), want %d of %d points", len(doc.Frames), err, nodes, points/2)
		}
		bytesPer = min(bytesPer, float64(after.TotalAlloc-before.TotalAlloc)/nodes)
		mallocsPer = min(mallocsPer, float64(after.Mallocs-before.Mallocs)/nodes)
	}
	t.Logf("decoding %d frames of %d points: %.0f B and %.2f mallocs per frame", nodes, points/2, bytesPer, mallocsPer)
	if bytesPer > 400 || mallocsPer > 1.1 {
		t.Errorf("a decoded frame costs %.0f B in %.2f mallocs, gate 400 B and 1.1", bytesPer, mallocsPer)
	}
}
