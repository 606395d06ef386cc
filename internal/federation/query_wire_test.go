package federation

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"envmon/internal/obs"
	"envmon/internal/telemetry"
	"envmon/internal/telemetry/httpapi"
)

// sameSeriesOnTwoMembers starts two members that both hold the series
// n00000/rack/Total Power — a series spanning racks, which the front-end
// answers with one combined frame — with value v at 1 s on the first and
// at 2 s on the second.
func sameSeriesOnTwoMembers(t *testing.T, v float64) []Member {
	t.Helper()
	members := make([]Member, 2)
	for j := range members {
		st := telemetry.New(smallStore)
		t.Cleanup(st.Close)
		key := telemetry.SeriesKey{Node: nodeName(0), Backend: "rack", Domain: "Total Power"}
		if err := st.Ingest(key, "W", time.Duration(j+1)*time.Second, v); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(httpapi.New(st, func() time.Duration { return 4 * time.Second }))
		t.Cleanup(ts.Close)
		members[j] = Member{Name: fmt.Sprintf("rack%02d", j), URL: ts.URL}
	}
	return members
}

// TestFederatedQueryOnTheWire: envfedd's /query body is what encoding/json
// would have written for the same document, and by the time the client
// has read it to its end the byte counter has advanced by exactly its
// length.
func TestFederatedQueryOnTheWire(t *testing.T) {
	base, _ := startFederation(t, startMembers(t, 64, 4), obs.NewRegistry())
	resp, err := http.Get(base + "/query?agg=last")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(body) < 16<<10 {
		t.Fatalf("status %d, body %d bytes", resp.StatusCode, len(body))
	}
	var doc httpapi.QueryResult
	if err := json.Unmarshal(body, &doc); err != nil || len(doc.Frames) != 64 {
		t.Fatalf("document: %v, %d frames", err, len(doc.Frames))
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(doc); err != nil || !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("body is not encoding/json's encoding of itself (%v):\n%.300s\n%.300s", err, body, want.Bytes())
	}
	_, metrics := get(t, base+"/metrics")
	if want := fmt.Sprintf(`envfed_http_response_bytes_total{endpoint="query"} %d`, len(body)); !strings.Contains(string(metrics), want+"\n") {
		t.Errorf("metrics missing %q", want)
	}

	// Every empty answer, to the byte, is the one a single daemon gives
	// (httpapi's TestQueryOnTheWire): an empty list is [] and never null.
	// The one exception is TestCombinedEmptyWindowStaysNull's.
	empty, _ := startFederation(t, startMembers(t, 0, 2), nil)
	for _, row := range []struct {
		base, path string
		status     int
		body       string
	}{
		{base, "/query?node=n00000&from=10s", 200, `{"frames":[{"node":"n00000","backend":"rack","domain":"Total Power","unit":"W","resolution":"raw","points":[]}],"sim_now_ns":4000000000}`},
		{base, "/query?node=n00000&from=10s&res=10s&agg=max", 200, `{"frames":[{"node":"n00000","backend":"rack","domain":"Total Power","unit":"W","resolution":"10s","points":[]}],"sim_now_ns":4000000000}`},
		{base, "/query?node=n00000&from=3200ms", 200, `{"frames":[{"node":"n00000","backend":"rack","domain":"Total Power","unit":"W","resolution":"raw","points":[],"gaps_ns":[3500000000]}],"sim_now_ns":4000000000}`},
		{base, "/topk?from=10s", 200, `{"domain":"Total Power","total_watts":0,"sim_now_ns":4000000000,"nodes":[]}`},
		{base, "/topk?domain=nope", 200, `{"domain":"nope","total_watts":0,"sim_now_ns":4000000000,"nodes":[]}`},
		{base, "/query?node=nope", 404, `{"error":"no matching series"}`},
		{empty, "/query", 200, `{"frames":[],"sim_now_ns":4000000000}`},
		{empty, "/topk", 200, `{"domain":"Total Power","total_watts":0,"sim_now_ns":4000000000,"nodes":[]}`},
		{empty, "/query?domain=Total+Power", 404, `{"error":"no matching series"}`},
	} {
		if status, got := get(t, row.base+row.path); status != row.status || string(got) != row.body+"\n" {
			t.Errorf("GET %s = %d\n got %s\nwant %s", row.path, status, got, row.body)
		}
	}
}

// TestCombinedEmptyWindowStaysNull pins one byte-level habit of the wire
// that clients may have come to rely on: same-key frames that combine to
// zero points are served as "points":null (combineFrames appends nothing
// to a nil slice), where a single daemon serves "points":[].
func TestCombinedEmptyWindowStaysNull(t *testing.T) {
	members := sameSeriesOnTwoMembers(t, 7)
	status, one := get(t, members[0].URL+"/query?node=n00000&from=3s")
	if status != http.StatusOK || !bytes.Contains(one, []byte(`"points":[]`)) {
		t.Fatalf("a member alone: %d %s", status, one)
	}
	base, _ := startFederation(t, members, nil)
	status, body := get(t, base+"/query?node=n00000&from=3s")
	const want = `{"frames":[{"node":"n00000","backend":"rack","domain":"Total Power","unit":"W","resolution":"raw","points":null}],"sim_now_ns":4000000000}` + "\n"
	if status != http.StatusOK || string(body) != want {
		t.Fatalf("combined empty window: %d\n got %s\nwant %s", status, body, want)
	}
}

// TestFederatedNonFiniteAnswers500: the front-end computes too — here the
// count-weighted mean of two members' points overflows — and a document
// it cannot encode is a 500 naming the series, as on a single daemon.
func TestFederatedNonFiniteAnswers500(t *testing.T) {
	reg := obs.NewRegistry()
	base, _ := startFederation(t, sameSeriesOnTwoMembers(t, 1.7e308), reg)
	status, body := get(t, base+"/query?node=n00000&agg=mean")
	var eb httpapi.ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil || status != http.StatusInternalServerError ||
		!strings.Contains(eb.Error, "n00000/rack/Total Power") || !strings.Contains(eb.Error, "+Inf") {
		t.Fatalf("overflowing mean: %d %s", status, body)
	}
	if status, body := get(t, base+"/query?node=n00000&agg=max"); status != http.StatusOK {
		t.Fatalf("the same series without the overflow: %d %s", status, body)
	}
	_, metrics := get(t, base+"/metrics")
	if want := `envfed_http_errors_total{code="500",endpoint="query"} 1`; !strings.Contains(string(metrics), want+"\n") {
		t.Errorf("metrics missing %q", want)
	}
}
