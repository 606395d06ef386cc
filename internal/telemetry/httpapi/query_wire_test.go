package httpapi

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"envmon/internal/obs"
	"envmon/internal/telemetry"
)

// TestQueryOnTheWire serves a history-sized /query over a real socket: the
// body is what encoding/json would have written for the same document,
// and by the time the client has read it to its end the byte counter has
// advanced by exactly its length.
func TestQueryOnTheWire(t *testing.T) {
	st := telemetry.New(telemetry.Options{Shards: 2})
	defer st.Close()
	k := telemetry.SeriesKey{Node: "n00", Backend: "MSR", Domain: "Total Power"}
	for s := 0; s < 500; s++ {
		if err := st.Ingest(k, "W", time.Duration(s)*time.Second, 180+float64(s%7)/3); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.IngestGap(k, "W", 1500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	srv := New(st, func() time.Duration { return 500 * time.Second })
	srv.Instrument(obs.NewRegistry())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/query?node=n00&agg=mean")
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
	doc, err := refDecode(body)
	if err != nil || len(doc.Frames) != 1 || len(doc.Frames[0].Points) != 500 || len(doc.Frames[0].GapsNS) != 1 ||
		doc.Frames[0].Reduced == nil || doc.SimNowNS != int64(500*time.Second) || doc.NewestNS != int64(499*time.Second) {
		t.Fatalf("document: %v %.300s", err, body)
	}
	if want, _ := refEncode(doc); !bytes.Equal(body, want) {
		t.Fatalf("body is not encoding/json's encoding of itself:\n%.300s\n%.300s", body, want)
	}
	want := fmt.Sprintf(`envmon_http_response_bytes_total{endpoint="query"} %d`, len(body))
	if out := metricsText(t, srv); !strings.Contains(out, want+"\n") {
		t.Errorf("metrics missing %q", want)
	}

	// Every empty answer, to the byte: an empty list is [] and never null.
	nothing := telemetry.New(telemetry.Options{})
	defer nothing.Close()
	empty := httptest.NewServer(New(nothing, nil))
	defer empty.Close()
	for _, row := range []struct {
		base, path string
		status     int
		body       string
	}{
		{ts.URL, "/query?node=n00&from=600s", 200, `{"frames":[{"node":"n00","backend":"MSR","domain":"Total Power","unit":"W","resolution":"raw","points":[]}],"sim_now_ns":500000000000}`},
		{ts.URL, "/query?node=n00&from=600s&res=10s&agg=max", 200, `{"frames":[{"node":"n00","backend":"MSR","domain":"Total Power","unit":"W","resolution":"10s","points":[]}],"sim_now_ns":500000000000}`},
		{ts.URL, "/query?node=n00&from=1200ms&to=1600ms", 200, `{"frames":[{"node":"n00","backend":"MSR","domain":"Total Power","unit":"W","resolution":"raw","points":[],"gaps_ns":[1500000000]}],"sim_now_ns":500000000000}`},
		{ts.URL, "/topk?from=600s", 200, `{"domain":"Total Power","total_watts":0,"sim_now_ns":500000000000,"nodes":[]}`},
		{ts.URL, "/topk?domain=nope", 200, `{"domain":"nope","total_watts":0,"sim_now_ns":500000000000,"nodes":[]}`},
		{ts.URL, "/query?node=nope", 404, `{"error":"no matching series"}`},
		{empty.URL, "/query", 200, `{"frames":[]}`},
		{empty.URL, "/topk", 200, `{"domain":"Total Power","total_watts":0,"nodes":[]}`},
		{empty.URL, "/query?domain=Total+Power", 404, `{"error":"no matching series"}`},
	} {
		resp, err := http.Get(row.base + row.path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != row.status || string(got) != row.body+"\n" {
			t.Errorf("GET %s = %d %v\n got %s\nwant %s", row.path, resp.StatusCode, err, got, row.body)
		}
	}
}

// TestQueryNonFiniteSampleAnswers500: the store accepts NaN and ±Inf, JSON
// cannot carry them. The answer used to be a 200 whose body ended after
// the header; it is a 500 that names the series and the sample.
func TestQueryNonFiniteSampleAnswers500(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		st := testStore(t)
		k := telemetry.SeriesKey{Node: "n01", Backend: "MSR", Domain: "Total Power"}
		if err := st.Ingest(k, "W", 10*time.Second, v); err != nil {
			t.Fatal(err)
		}
		srv := New(st, nil)
		srv.Instrument(obs.NewRegistry())
		var eb ErrorBody
		get(t, srv, "/query?node=n01", http.StatusInternalServerError, &eb)
		if !strings.Contains(eb.Error, "n01/MSR/Total Power") || !strings.Contains(eb.Error, "t_ns=10000000000") {
			t.Errorf("error does not name the series and the sample: %q", eb.Error)
		}
		// Series without the bad sample are still served.
		var q QueryResult
		get(t, srv, "/query?node=n00", http.StatusOK, &q)
		if len(q.Frames) != 1 || len(q.Frames[0].Points) != 10 {
			t.Errorf("n00 after a bad sample on n01: %+v", q)
		}
		if want := `envmon_http_errors_total{code="500",endpoint="query"} 1`; !strings.Contains(metricsText(t, srv), want+"\n") {
			t.Errorf("metrics missing %q", want)
		}
		st.Close()
	}
}
