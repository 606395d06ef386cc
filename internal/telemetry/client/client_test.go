package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"envmon/internal/telemetry"
	"envmon/internal/telemetry/httpapi"
)

// startDaemon serves a populated store the way cmd/envmond does and returns
// a client pointed at it.
func startDaemon(t *testing.T) *Client {
	t.Helper()
	st := telemetry.New(telemetry.Options{Shards: 4})
	for i, node := range []string{"n00", "n01"} {
		k := telemetry.SeriesKey{Node: node, Backend: "MSR", Domain: "Total Power"}
		for s := 0; s < 5; s++ {
			if err := st.Ingest(k, "W", time.Duration(s)*time.Second, 100+10*float64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	srv := httptest.NewServer(httpapi.New(st, func() time.Duration { return 5 * time.Second }))
	t.Cleanup(srv.Close)
	return New(srv.URL + "/") // trailing slash must be tolerated
}

func TestClientRoundTrip(t *testing.T) {
	cl := startDaemon(t)
	ctx := context.Background()

	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Series != 2 || h.Samples != 10 || h.SimNowNS != int64(5*time.Second) {
		t.Errorf("health = %+v", h)
	}

	series, err := cl.Series(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 || series[0].Node != "n00" || series[0].Unit != "W" {
		t.Errorf("series = %+v", series)
	}

	frames, err := cl.Query(ctx, QueryParams{
		Node: "n01", Resolution: "1s", Aggregate: "mean",
		From: time.Second, To: 4 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 || len(frames[0].Points) != 3 {
		t.Fatalf("frames = %+v", frames)
	}
	if frames[0].Reduced == nil || *frames[0].Reduced != 110 {
		t.Errorf("reduced = %v, want 110", frames[0].Reduced)
	}

	top, err := cl.TopK(ctx, TopKParams{K: 1, Resolution: "1s"})
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Nodes) != 1 || top.Nodes[0].Node != "n01" || top.TotalWatts != 210 {
		t.Errorf("topk = %+v", top)
	}
}

func TestClientSurfacesServerErrors(t *testing.T) {
	cl := startDaemon(t)
	_, err := cl.Query(context.Background(), QueryParams{Resolution: "5m"})
	if err == nil {
		t.Fatal("bad resolution accepted")
	}
	if !strings.Contains(err.Error(), "HTTP 400") {
		t.Errorf("error %q does not carry the server status", err)
	}
}

func TestClientConnectionError(t *testing.T) {
	cl := New("http://127.0.0.1:1") // nothing listens on port 1
	if _, err := cl.Health(context.Background()); err == nil {
		t.Fatal("unreachable daemon produced no error")
	}
}

// TestOverlongResponseRefusedByName: a body over the limit is an error that
// says so, whether the server announced the length or streamed past it —
// not a body cut at the limit and a JSON syntax error at the cut.
func TestOverlongResponseRefusedByName(t *testing.T) {
	padded := func(n int) []byte { // a valid /query document of exactly n bytes
		return []byte(`{"frames":null` + strings.Repeat(" ", n-len(`{"frames":null}`)) + `}`)
	}

	// Announced: refused on the header, at the real limit, before a byte
	// of the body is read.
	announced := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(64<<20+1))
		_, _ = w.Write([]byte(`{"frames":`))
	}))
	t.Cleanup(announced.Close)
	_, err := New(announced.URL).QueryFull(context.Background(), QueryParams{})
	if err == nil || err.Error() != "client: /query response exceeds 64 MiB" {
		t.Errorf("announced 64 MiB + 1: error %v", err)
	}

	// Streamed (chunked, no Content-Length), against a limit lowered to
	// 1 MiB so the test does not move 64: one byte over is refused, the
	// limit itself is served.
	var size atomic.Int64
	size.Store(1<<20 + 1)
	streamed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body := padded(int(size.Load()))
		_, _ = w.Write(body[:1])
		w.(http.Flusher).Flush()
		_, _ = w.Write(body[1:])
	}))
	t.Cleanup(streamed.Close)
	cl := New(streamed.URL)
	cl.maxBody = 1 << 20
	_, err = cl.QueryFull(context.Background(), QueryParams{})
	if err == nil || err.Error() != "client: /query response exceeds 1 MiB" {
		t.Errorf("streamed 1 MiB + 1 against a 1 MiB limit: error %v", err)
	}
	size.Store(1 << 20)
	if _, err := cl.QueryFull(context.Background(), QueryParams{}); err != nil {
		t.Errorf("streamed exactly the limit: %v", err)
	}
}

// TestQueryDecodeErrorIsWrapped: a 200 whose body is not a /query document
// is reported as a decoding failure of that endpoint, with encoding/json's
// error inside.
func TestQueryDecodeErrorIsWrapped(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{"frames":[{"node":7}]}`))
	}))
	t.Cleanup(srv.Close)
	_, err := New(srv.URL).QueryFull(context.Background(), QueryParams{})
	var typeErr *json.UnmarshalTypeError
	if err == nil || !strings.HasPrefix(err.Error(), "client: decoding /query response: ") || !errors.As(err, &typeErr) {
		t.Fatalf("error %v", err)
	}
}
