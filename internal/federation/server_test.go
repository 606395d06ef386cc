package federation

import (
	"net/http"
	"strings"
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
