package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestParseDeadline(t *testing.T) {
	mk := func(q string) *http.Request { return httptest.NewRequest("GET", "/query?"+q, nil) }
	if d, err := ParseDeadline(mk("")); err != nil || d != 0 {
		t.Fatalf("no deadline_ms: %v %v", d, err)
	}
	if d, err := ParseDeadline(mk("deadline_ms=250")); err != nil || d != 250*time.Millisecond {
		t.Fatalf("deadline_ms=250: %v %v", d, err)
	}
	if d, err := ParseDeadline(mk("deadline_ms=3600000")); err != nil || d != time.Hour {
		t.Fatalf("deadline_ms=3600000 (the ceiling): %v %v", d, err)
	}
	for _, bad := range []string{
		"deadline_ms=0", "deadline_ms=-1", "deadline_ms=soon",
		"deadline_ms=3600001",              // one past the ceiling
		"deadline_ms=10000000000000",       // × time.Millisecond wraps negative
		"deadline_ms=99999999999999999999", // not an int at all
	} {
		if _, err := ParseDeadline(mk(bad)); err == nil {
			t.Errorf("%s: want error", bad)
		}
	}
}

func TestDeadlineMSRejectedOnWire(t *testing.T) {
	srv := New(testStore(t), nil)
	for _, path := range []string{"/query?deadline_ms=nope", "/topk?deadline_ms=-2"} {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		if w.Code != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400: %s", path, w.Code, w.Body)
		}
	}
}

func TestRunGuardedDeadlineAnswers504(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	w := httptest.NewRecorder()
	start := time.Now()
	runGuarded(w, 20*time.Millisecond, func() (int, any) {
		<-block // a store scan slower than the caller's budget
		return http.StatusOK, QueryResult{}
	})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("guard did not fire: took %v", elapsed)
	}
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", w.Code, w.Body)
	}
	var eb ErrorBody
	if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Error == "" {
		t.Fatalf("504 body not a JSON error: %s", w.Body)
	}
}

func TestRunGuardedFastPathAnswersInline(t *testing.T) {
	w := httptest.NewRecorder()
	runGuarded(w, time.Second, func() (int, any) { return http.StatusOK, TopKResult{Domain: "d"} })
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
}

// TestClosingAnswers503 covers the shutdown race: once StartClosing is
// called (or the store is closed under the server), every data-plane
// request gets an immediate 503 JSON error instead of a hung connection
// or a read against dismantled persistence tiers.
func TestClosingAnswers503(t *testing.T) {
	st := testStore(t)
	srv := New(st, nil)

	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest("GET", "/query", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("pre-close query: status %d", w.Code)
	}

	srv.StartClosing()
	for _, path := range []string{"/query", "/topk", "/series"} {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		if w.Code != http.StatusServiceUnavailable {
			t.Errorf("GET %s while closing: status %d, want 503: %s", path, w.Code, w.Body)
		}
		var eb ErrorBody
		if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Error == "" {
			t.Errorf("GET %s: 503 body not a JSON error: %s", path, w.Body)
		}
	}

	// /healthz stays up through the drain — it is how an operator watches
	// the shutdown.
	w = httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest("GET", "/healthz", nil))
	if w.Code != http.StatusOK {
		t.Errorf("healthz while closing: status %d", w.Code)
	}
}

// TestClosedStoreAnswers503 is the same guard keyed off the store itself:
// even without StartClosing, a closed store never serves silent reads.
func TestClosedStoreAnswers503(t *testing.T) {
	st := testStore(t)
	srv := New(st, nil)
	st.Close()
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest("GET", "/topk", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("query on closed store: status %d, want 503: %s", w.Code, w.Body)
	}
}
