package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
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
	if f.Node != "n01" || f.Resolution != "1s" || len(f.Points) != 3 {
		t.Errorf("frame = %+v", f)
	}
	if f.Reduced == nil || *f.Reduced != 110 {
		t.Errorf("reduced = %v, want 110", f.Reduced)
	}
	if f.Points[0].T != 2*time.Second || f.Points[0].Count != 1 {
		t.Errorf("points[0] = %+v", f.Points[0])
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
