package daemon

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"envmon/internal/obs"
)

// testHandler mounts three endpoints that exercise the capture paths: one
// that writes a body without ever calling WriteHeader, one that answers
// through BadRequest, and one that records the ResponseWriter it is given.
func testHandler(seen *http.ResponseWriter) *Handler {
	h := NewHandler("envtest")
	h.HandleFunc("/plain", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("12345")) })
	h.HandleFunc("/bad", func(w http.ResponseWriter, r *http.Request) { BadRequest(w, errors.New("nope")) })
	h.HandleFunc("/seen", func(w http.ResponseWriter, r *http.Request) { *seen = w })
	return h
}

func do(h http.Handler, method, target string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, nil))
	return rec
}

func TestHandlerResponses(t *testing.T) {
	var seen http.ResponseWriter
	h := testHandler(&seen)
	h.Instrument(obs.NewRegistry())
	cases := []struct {
		method, target string
		status         int
		allow, body    string
	}{
		{"GET", "/plain", 200, "", "12345"},
		{"GET", "/bad", 400, "", `{"error":"nope"}` + "\n"},
		{"GET", "/nowhere", 404, "", "404 page not found\n"},
		{"POST", "/plain", 405, "GET", `{"error":"GET only"}` + "\n"},
		{"DELETE", "/nowhere", 405, "GET", `{"error":"GET only"}` + "\n"},
	}
	for _, tc := range cases {
		rec := do(h, tc.method, tc.target)
		if rec.Code != tc.status || rec.Body.String() != tc.body || rec.Header().Get("Allow") != tc.allow {
			t.Errorf("%s %s = %d Allow=%q %q, want %d Allow=%q %q", tc.method, tc.target,
				rec.Code, rec.Header().Get("Allow"), rec.Body, tc.status, tc.allow, tc.body)
		}
		if tc.status == 400 || tc.status == 405 {
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("%s %s: Content-Type = %q", tc.method, tc.target, ct)
			}
		}
	}
}

func TestHandlerMetrics(t *testing.T) {
	var seen http.ResponseWriter
	h := testHandler(&seen)
	h.Instrument(obs.NewRegistry())
	for _, req := range [][2]string{
		{"GET", "/plain"}, {"GET", "/plain"}, {"GET", "/bad"}, {"GET", "/bad?again"},
		{"POST", "/bad"}, {"GET", "/nowhere"}, {"GET", "/elsewhere"},
	} {
		do(h, req[0], req[1])
	}
	out := do(h, "GET", "/metrics")
	if ct := out.Header().Get("Content-Type"); out.Code != 200 || !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics = %d %q", out.Code, ct)
	}
	for _, want := range []string{
		// Status 200 is captured although /plain never calls WriteHeader,
		// and its body bytes are counted.
		`envtest_http_requests_total{endpoint="plain"} 2`,
		`envtest_http_response_bytes_total{endpoint="plain"} 10`,
		`envtest_http_request_seconds_count{endpoint="plain"} 2`,
		// Mounted but never requested: pre-interned at zero.
		`envtest_http_requests_total{endpoint="seen"} 0`,
		`envtest_http_requests_total{endpoint="metrics"} 0`,
		// Unknown paths fold into one label.
		`envtest_http_requests_total{endpoint="other"} 2`,
		// One error series per (endpoint, code).
		`envtest_http_errors_total{code="400",endpoint="bad"} 2`,
		`envtest_http_errors_total{code="405",endpoint="bad"} 1`,
		`envtest_http_errors_total{code="404",endpoint="other"} 2`,
	} {
		if !strings.Contains(out.Body.String(), want+"\n") {
			t.Errorf("metrics missing %q", want)
		}
	}
	if strings.Contains(out.Body.String(), `endpoint="plain",code`) || strings.Contains(out.Body.String(), `code="200"`) {
		t.Error("a success interned an error series")
	}
}

func TestHandlerAccessLog(t *testing.T) {
	type entry struct {
		method, path string
		status       int
		bytes        int64
	}
	for _, instrumented := range []bool{false, true} {
		var seen http.ResponseWriter
		h := testHandler(&seen)
		if instrumented {
			h.Instrument(obs.NewRegistry())
		}
		var got []entry
		h.SetAccessLog(func(method, path string, status int, d time.Duration, bytes int64) {
			if d <= 0 {
				t.Errorf("%s %s: duration %v", method, path, d)
			}
			got = append(got, entry{method, path, status, bytes})
		})
		do(h, "GET", "/plain?x=1")
		do(h, "PUT", "/bad")
		want := []entry{{"GET", "/plain", 200, 5}, {"PUT", "/bad", 405, int64(len(`{"error":"GET only"}`) + 1)}}
		if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
			t.Errorf("instrumented=%v: logged %+v, want %+v", instrumented, got, want)
		}
	}
}

// TestHandlerUnobservedAddsNoWrapper pins the fast path: with neither a
// registry nor an access log, the endpoint sees the caller's own writer.
func TestHandlerUnobservedAddsNoWrapper(t *testing.T) {
	var seen http.ResponseWriter
	h := testHandler(&seen)
	h.Instrument(nil) // a nil registry is a no-op, not an observer
	rec := do(h, "GET", "/seen")
	if seen != http.ResponseWriter(rec) {
		t.Errorf("unobserved handler wrapped the writer in %T", seen)
	}
	if do(h, "GET", "/metrics").Code != 404 {
		t.Error("/metrics mounted without a registry")
	}
	h.SetAccessLog(func(string, string, int, time.Duration, int64) {})
	do(h, "GET", "/seen")
	if _, ok := seen.(*statusWriter); !ok {
		t.Errorf("observed handler passed %T, want the status-capturing writer", seen)
	}
}

// appendDoc is a document with its own encoder, as the /query document is.
type appendDoc struct {
	body string
	err  error
}

func (d appendDoc) AppendJSON(dst []byte) ([]byte, error) {
	if d.err != nil {
		return dst, d.err
	}
	return append(dst, d.body...), nil
}

// countingWriter records how a handler used its ResponseWriter.
type countingWriter struct {
	*httptest.ResponseRecorder
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.ResponseRecorder.Write(p)
}

// TestWriteJSONWithOwnEncoder: a document that encodes itself is built
// before the header goes out — one Write, the byte counter advancing by
// exactly the body, no Content-Length (see WriteJSON) — and one that
// cannot be encoded is a 500 with the envelope, not a 200 with nothing
// after the header.
func TestWriteJSONWithOwnEncoder(t *testing.T) {
	big := `{"frames":"` + strings.Repeat("x", maxPooledEncodeBuf) + `"}` + "\n" // too big to keep pooled
	h := NewHandler("envtest")
	h.HandleFunc("/doc", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, appendDoc{body: `{"frames":null}` + "\n"})
	})
	h.HandleFunc("/big", func(w http.ResponseWriter, r *http.Request) { WriteJSON(w, http.StatusOK, appendDoc{body: big}) })
	h.HandleFunc("/nan", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, appendDoc{err: errors.New("series n00 at t_ns=5: NaN")})
	})
	h.Instrument(obs.NewRegistry())

	for _, tc := range []struct {
		target, body string
		status       int
	}{
		{"/doc", `{"frames":null}` + "\n", 200},
		{"/big", big, 200},
		{"/doc", `{"frames":null}` + "\n", 200}, // after /big: nothing of it is left in a reused buffer
		{"/nan", `{"error":"series n00 at t_ns=5: NaN"}` + "\n", 500},
	} {
		w := &countingWriter{ResponseRecorder: httptest.NewRecorder()}
		h.ServeHTTP(w, httptest.NewRequest("GET", tc.target, nil))
		if w.Code != tc.status || w.Body.String() != tc.body {
			t.Fatalf("GET %s = %d %.80q, want %d %.80q", tc.target, w.Code, w.Body, tc.status, tc.body)
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("GET %s: Content-Type = %q", tc.target, ct)
		}
		if tc.status != 200 {
			continue
		}
		if cl := w.Header().Get("Content-Length"); cl != "" {
			t.Errorf("GET %s: Content-Length = %q announced", tc.target, cl)
		}
		if w.writes != 1 {
			t.Errorf("GET %s: %d writes, want 1", tc.target, w.writes)
		}
	}
	out := do(h, "GET", "/metrics").Body.String()
	for _, want := range []string{
		`envtest_http_response_bytes_total{endpoint="doc"} 32`,
		`envtest_http_response_bytes_total{endpoint="big"} ` + strconv.Itoa(len(big)),
		`envtest_http_errors_total{code="500",endpoint="nan"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("metrics missing %q", want)
		}
	}
}
