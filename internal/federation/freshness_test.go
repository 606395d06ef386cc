package federation

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"envmon/internal/telemetry"
	"envmon/internal/telemetry/httpapi"
)

// startMemberAt spins one member whose simulation clock reads now,
// holding node i's synthetic series.
func startMemberAt(t *testing.T, name string, now time.Duration, node int) Member {
	t.Helper()
	st := telemetry.New(smallStore)
	t.Cleanup(st.Close)
	ingestNode(t, st, node)
	ts := httptest.NewServer(httpapi.New(st, func() time.Duration { return now }))
	t.Cleanup(ts.Close)
	return Member{Name: name, URL: ts.URL}
}

// TestFederatedFreshnessIsConservative checks the merged sim-now is the
// minimum across members that answered with metadata: freshness judged
// against the laggiest clock can only overestimate age, the fail-safe
// direction for a capping consumer. Members answering "not mine" (404 →
// empty document) must not drag the minimum to zero.
func TestFederatedFreshnessIsConservative(t *testing.T) {
	members := []Member{
		startMemberAt(t, "fast", 9*time.Second, 1),
		startMemberAt(t, "slow", 4*time.Second, 2),
	}
	fed, err := New(Config{Members: members, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}

	// Fleet-wide query: both members answer, min clock wins.
	res := fed.Query(context.Background(), httpapi.Request{Query: telemetry.Query{Domain: "Total Power"}})
	if res.SimNowNS != int64(4*time.Second) {
		t.Errorf("fleet sim_now_ns = %d, want %d", res.SimNowNS, int64(4*time.Second))
	}
	if res.NewestNS != int64(3*time.Second) {
		t.Errorf("fleet newest_ns = %d, want %d", res.NewestNS, int64(3*time.Second))
	}

	// Node query: only "fast" holds n00001; "slow" 404s. Its empty
	// document carries no clock and must be skipped, not folded as zero.
	res = fed.Query(context.Background(), httpapi.Request{Query: telemetry.Query{Node: nodeName(1)}})
	if res.SimNowNS != int64(9*time.Second) {
		t.Errorf("node sim_now_ns = %d, want %d", res.SimNowNS, int64(9*time.Second))
	}

	// TopK carries the conservative clock too.
	topk := fed.TopK(context.Background(), httpapi.Request{K: 2})
	if topk.SimNowNS != int64(4*time.Second) {
		t.Errorf("topk sim_now_ns = %d, want %d", topk.SimNowNS, int64(4*time.Second))
	}
}

// TestHealthSkipsClocklessMember: /healthz folds sim-now by the rule
// /query and /topk use. A member serving without a simulation clock
// reports sim_now_ns 0, which says nothing about time: it must neither
// read as a clock at zero (a skew the size of the other member's whole
// clock) nor hide the clock the federation does have.
func TestHealthSkipsClocklessMember(t *testing.T) {
	st := telemetry.New(smallStore)
	t.Cleanup(st.Close)
	clockless := httptest.NewServer(httpapi.New(st, nil))
	t.Cleanup(clockless.Close)
	for i, members := range [][]Member{
		{{Name: "a", URL: clockless.URL}, startMemberAt(t, "b", 9*time.Second, 1)},
		{startMemberAt(t, "a", 9*time.Second, 1), {Name: "b", URL: clockless.URL}},
	} {
		fed, err := New(Config{Members: members, Retries: -1})
		if err != nil {
			t.Fatal(err)
		}
		h := fed.Health(context.Background())
		if h.Status != "ok" || h.SimNowNS != int64(9*time.Second) || h.Federation.SimSkewNS != 0 {
			t.Errorf("clockless member at %d: status %q sim_now_ns %d sim_skew_ns %d, want ok %d 0",
				i, h.Status, h.SimNowNS, h.Federation.SimSkewNS, int64(9*time.Second))
		}
	}
}
