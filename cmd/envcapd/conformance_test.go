package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"envmon/internal/federation"
	"envmon/internal/obs"
	"envmon/internal/telemetry"
	"envmon/internal/telemetry/httpapi"
)

// TestServingConformance runs one probe table against all three daemons'
// handlers — envmond's httpapi server, envfedd's federation server over
// it, and a running envcapd — because all three mount on the same chassis
// and must answer its rules identically under their own metric prefix.
func TestServingConformance(t *testing.T) {
	member := fakeTelemetry(t)

	st := telemetry.New(telemetry.Options{})
	t.Cleanup(st.Close)
	if err := st.Ingest(telemetry.SeriesKey{Node: "n00", Backend: "NVML", Domain: "Total Power"}, "W", time.Second, 100); err != nil {
		t.Fatal(err)
	}
	mon := httpapi.New(st, nil)
	mon.Instrument(obs.NewRegistry())
	monSrv := httptest.NewServer(mon)
	t.Cleanup(monSrv.Close)

	fed, err := federation.New(federation.Config{Members: []federation.Member{{Name: "m0", URL: member.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	fedAPI := federation.NewServer(fed)
	fedAPI.Instrument(obs.NewRegistry())
	fedSrv := httptest.NewServer(fedAPI)
	t.Cleanup(fedSrv.Close)

	cfg := testConfig(t, member.URL)
	cfg.budget, cfg.interval = 500, time.Hour // an idle control loop: the subject is the chassis
	d, err := newCapDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.run(ctx) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("envcapd run: %v", err)
		}
	})

	// simNow is how each daemon's documents spell their clock: monSrv has
	// none, fedSrv passes its member's on.
	for _, dmn := range []struct{ name, prefix, base, simNow string }{
		{"envmond", "envmon", monSrv.URL, ""},
		{"envfedd", "envfed", fedSrv.URL, `,"sim_now_ns":9500000000`},
		{"envcapd", "envcap", "http://" + d.Addr(), ""},
	} {
		t.Run(dmn.name, func(t *testing.T) {
			probe := func(method, path string) (*http.Response, string) {
				t.Helper()
				req, err := http.NewRequest(method, dmn.base+path, nil)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatalf("%s %s: %v", method, path, err)
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatalf("%s %s: %v", method, path, err)
				}
				return resp, string(body)
			}
			for _, path := range []string{"/healthz", "/metrics", "/nowhere"} {
				resp, body := probe(http.MethodPost, path)
				if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET" ||
					resp.Header.Get("Content-Type") != "application/json" || body != `{"error":"GET only"}`+"\n" {
					t.Errorf("POST %s = %d Allow=%q %q %q", path, resp.StatusCode,
						resp.Header.Get("Allow"), resp.Header.Get("Content-Type"), body)
				}
			}
			if resp, _ := probe(http.MethodGet, "/nowhere"); resp.StatusCode != http.StatusNotFound {
				t.Errorf("GET /nowhere = %d", resp.StatusCode)
			}
			// envmond and envfedd share one /query + /topk grammar (envcapd
			// serves neither): a deadline_ms whose product with
			// time.Millisecond would wrap is a 400, not "no deadline"
			if dmn.name != "envcapd" {
				for _, path := range []string{"/query?deadline_ms=10000000000000", "/topk?deadline_ms=10000000000000"} {
					resp, body := probe(http.MethodGet, path)
					if resp.StatusCode != http.StatusBadRequest || !strings.HasPrefix(body, `{"error":"bad deadline_ms`) {
						t.Errorf("GET %s = %d %q, want the 400 envelope", path, resp.StatusCode, body)
					}
				}
				// … and one spelling of every empty answer: no sample array
				// for a window with nothing in it, [] for an empty ranking,
				// never null, the 404 envelope for a filter nothing matches.
				for _, row := range []struct {
					path   string
					status int
					body   string
				}{
					{"/query?node=n00&from=60s", 200, `{"frames":[{"node":"n00","backend":"NVML","domain":"Total Power","unit":"W","resolution":"raw"}]` + dmn.simNow + `}`},
					{"/topk?from=60s", 200, `{"domain":"Total Power","total_watts":0` + dmn.simNow + `,"nodes":[]}`},
					{"/query?node=nope", 404, `{"error":"no matching series"}`},
				} {
					resp, body := probe(http.MethodGet, row.path)
					if resp.StatusCode != row.status || body != row.body+"\n" {
						t.Errorf("GET %s = %d\n got %s\nwant %s", row.path, resp.StatusCode, body, row.body)
					}
				}
			}
			resp, metrics := probe(http.MethodGet, "/metrics")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET /metrics = %d", resp.StatusCode)
			}
			for _, want := range []string{
				`_http_requests_total{endpoint="healthz"} 1`,
				`_http_request_seconds_count{endpoint="healthz"} 1`,
				`_http_response_bytes_total{endpoint="healthz"} 21`,
				`_http_errors_total{code="405",endpoint="healthz"} 1`,
				`_http_errors_total{code="405",endpoint="metrics"} 1`,
				`_http_errors_total{code="405",endpoint="other"} 1`,
				`_http_errors_total{code="404",endpoint="other"} 1`,
				`_http_requests_total{endpoint="other"} 2`,
			} {
				if !strings.Contains(metrics, dmn.prefix+want+"\n") {
					t.Errorf("metrics missing %s%s", dmn.prefix, want)
				}
			}
		})
	}
}
