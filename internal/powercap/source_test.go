package powercap

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"envmon/internal/telemetry"
	"envmon/internal/telemetry/client"
	"envmon/internal/telemetry/httpapi"
)

func sourceStore(t *testing.T) *telemetry.Store {
	t.Helper()
	st := telemetry.New(telemetry.Options{Shards: 2})
	for i, node := range []string{"n00", "n01"} {
		k := telemetry.SeriesKey{Node: node, Backend: "NVML", Domain: "Total Power"}
		for s := 1; s <= 8; s++ {
			if err := st.Ingest(k, "W", time.Duration(s)*time.Second, 100+10*float64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return st
}

func TestStoreSourceSumsAndAges(t *testing.T) {
	st := sourceStore(t)
	defer st.Close()
	src := StoreSource{Store: st, Window: 5 * time.Second}

	o := src.Observe(context.Background(), 9*time.Second)
	if !o.Valid || !o.AgeKnown {
		t.Fatalf("observation = %+v", o)
	}
	if o.MeasuredW != 210 {
		t.Errorf("measured = %v, want 210 (100+110)", o.MeasuredW)
	}
	// Newest points are at 8s; observed at 9s.
	if o.Age != time.Second {
		t.Errorf("age = %v, want 1s", o.Age)
	}

	// Far past the data the window is empty: invalid, never zero-fresh.
	o = src.Observe(context.Background(), 60*time.Second)
	if o.Valid || o.AgeKnown {
		t.Errorf("empty window read as valid: %+v", o)
	}
	if o.MeasuredW != 0 {
		t.Errorf("empty window measured %v W", o.MeasuredW)
	}
}

func TestStoreSourceCountsGaps(t *testing.T) {
	st := sourceStore(t)
	defer st.Close()
	k := telemetry.SeriesKey{Node: "n00", Backend: "NVML", Domain: "Total Power"}
	if err := st.IngestGap(k, "W", 8500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	src := StoreSource{Store: st, Window: 5 * time.Second}
	o := src.Observe(context.Background(), 9*time.Second)
	if o.Gaps != 1 {
		t.Errorf("gaps = %d, want 1", o.Gaps)
	}
	// The gap did not perturb the sum.
	if o.MeasuredW != 210 {
		t.Errorf("measured = %v, want 210", o.MeasuredW)
	}
}

func TestClientSourceFreshAndDead(t *testing.T) {
	st := sourceStore(t)
	defer st.Close()
	srv := httptest.NewServer(httpapi.New(st, func() time.Duration { return 9 * time.Second }))
	defer srv.Close()

	src := ClientSource{Client: client.New(srv.URL), Window: 5 * time.Second}
	o := src.Observe(context.Background(), 42*time.Second)
	if !o.Valid || !o.AgeKnown {
		t.Fatalf("observation = %+v", o)
	}
	if o.Now != 42*time.Second {
		t.Errorf("now = %v", o.Now)
	}
	if o.MeasuredW != 210 || o.Age != time.Second {
		t.Errorf("measured %v W age %v, want 210 W 1s", o.MeasuredW, o.Age)
	}

	// A dead endpoint yields an invalid observation, not an error the
	// loop has to special-case.
	srv.Close()
	o = src.Observe(context.Background(), 43*time.Second)
	if o.Valid || o.AgeKnown || o.MeasuredW != 0 {
		t.Errorf("dead endpoint observation = %+v", o)
	}
}

// TestClientSourceAgesOutDeadNodes: a node whose last report predates
// the lookback window drops out of the sum instead of being billed as
// current draw forever.
func TestClientSourceAgesOutDeadNodes(t *testing.T) {
	st := sourceStore(t)
	defer st.Close()
	// A third node that died early: one reading at 1s, nothing since.
	k := telemetry.SeriesKey{Node: "n02", Backend: "NVML", Domain: "Total Power"}
	if err := st.Ingest(k, "W", time.Second, 500); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(httpapi.New(st, func() time.Duration { return 9 * time.Second }))
	defer srv.Close()

	src := ClientSource{Client: client.New(srv.URL), Window: 5 * time.Second}
	o := src.Observe(context.Background(), 0)
	if o.MeasuredW != 210 {
		t.Errorf("measured = %v W, want 210 (dead node's 500 W aged out)", o.MeasuredW)
	}
}

// TestClientSourceSubMillisecondDeadline: a deadline under a millisecond
// is sent rounded up to one (deadline_ms=1), not as deadline_ms=0, which
// the server refuses, so every observe would read as no data.
func TestClientSourceSubMillisecondDeadline(t *testing.T) {
	st := sourceStore(t)
	defer st.Close()
	srv := httptest.NewServer(httpapi.New(st, func() time.Duration { return 9 * time.Second }))
	defer srv.Close()

	src := ClientSource{Client: client.New(srv.URL), Window: 5 * time.Second, Deadline: 500 * time.Microsecond}
	if o := src.Observe(context.Background(), 0); !o.Valid || o.MeasuredW != 210 {
		t.Errorf("observation under a 500µs deadline = %+v, want valid at 210 W", o)
	}
}
