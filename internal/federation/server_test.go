package federation

import (
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"envmon/internal/obs"
)

// TestServerCountsBytesAndErrors: the front-end exports the same
// per-endpoint byte and error series a single daemon does.
func TestServerCountsBytesAndErrors(t *testing.T) {
	base, _ := startFederation(t, startMembers(t, 4, 2), obs.NewRegistry())
	if status, body := get(t, base+"/query?res=fortnightly"); status != http.StatusBadRequest {
		t.Fatalf("bad res: status %d: %s", status, body)
	}
	if status, body := get(t, base+"/topk?k=2"); status != http.StatusOK {
		t.Fatalf("topk: status %d: %s", status, body)
	}
	_, metrics := get(t, base+"/metrics")
	for _, want := range []string{
		`envfed_http_errors_total{code="400",endpoint="query"} 1`,
		`envfed_http_requests_total{endpoint="topk"} 1`,
		`envfed_http_response_bytes_total{endpoint="members"} 0`,
	} {
		if !strings.Contains(string(metrics), want+"\n") {
			t.Errorf("metrics missing %q", want)
		}
	}
	if strings.Contains(string(metrics), `envfed_http_response_bytes_total{endpoint="topk"} 0`+"\n") {
		t.Error("topk response bytes not counted")
	}
}

// TestForwardedRequestsPinned: what the front-end asks a member for each
// request, byte for byte, as read off it at 0784428: the canonical
// spelling (httpapi.AppendQuery / AppendTopK), no deadline_ms (the
// fan-out's context carries the deadline), and k=0 on /topk. Each request
// gets a fresh federator over one member that records the request and
// answers with an error, so no breaker carries over.
func TestForwardedRequestsPinned(t *testing.T) {
	for in, want := range map[string]string{
		"/query": "/query?res=raw",
		"/query?node=n1&backend=NVML&domain=Total+Power&from=5s&to=1m&res=10s&agg=mean&deadline_ms=900": "/query?agg=mean&backend=NVML&domain=Total+Power&from=5s&node=n1&res=10s&to=1m0s",
		"/query?agg=none&from=-5s": "/query?from=-5s&res=raw",
		"/topk":                    "/topk?k=0&res=raw",
		"/topk?k=3&domain=Total+Power&from=1s&res=1s&deadline_ms=900&node=x&agg=max": "/topk?domain=Total+Power&from=1s&k=0&res=1s",
	} {
		var mu sync.Mutex
		var got []string
		member := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			got = append(got, r.URL.RequestURI())
			mu.Unlock()
			http.Error(w, `{"error":"recording"}`, http.StatusInternalServerError)
		}))
		base, _ := startFederation(t, []Member{{Name: "rec", URL: member.URL}}, obs.NewRegistry())
		if status, body := get(t, base+in); status != http.StatusOK {
			t.Errorf("%s: status %d: %s", in, status, body)
		}
		member.Close()
		if mu.Lock(); !slices.Equal(got, []string{want}) {
			t.Errorf("%s: the member was asked %q, want [%q]", in, got, want)
		}
		mu.Unlock()
	}
}
