package federation

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"envmon/internal/obs"
	"envmon/internal/telemetry"
	"envmon/internal/telemetry/client"
	"envmon/internal/telemetry/httpapi"
)

// gatedMember is a healthy member (node 0's series behind httpapi) that
// holds every request while held is set — until the request's own context
// ends — and answers 500 while failing is set.
type gatedMember struct {
	Member
	held, failing atomic.Bool
}

func startGatedMember(t *testing.T, name string) *gatedMember {
	t.Helper()
	st := telemetry.New(smallStore)
	t.Cleanup(st.Close)
	ingestNode(t, st, 0)
	api := httpapi.New(st, func() time.Duration { return 4 * time.Second })
	g := &gatedMember{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for g.held.Load() {
			select {
			case <-r.Context().Done():
				return
			case <-time.After(time.Millisecond):
			}
		}
		if g.failing.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		api.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	g.Member = Member{Name: name, URL: ts.URL}
	return g
}

// abandon runs one query whose caller gives up after 10 ms.
func abandon(fed *Federator) {
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel)
	fed.Query(ctx, client.QueryParams{Node: nodeName(0)})
	cancel()
}

// TestAbandonedQueriesSayNothingAboutTheMember: handleQuery derives the
// fan-out's context from the request's, so a client that hangs up — envtop
// closed, a controller timing out — cancels the member calls. Three of
// those against one slow but healthy member used to open its breaker and
// turn the next, unhurried query into "breaker open" for the cooldown. A
// call the caller took away is recorded nowhere.
func TestAbandonedQueriesSayNothingAboutTheMember(t *testing.T) {
	slow := startGatedMember(t, "slow")
	fed, err := New(Config{Members: []Member{slow.Member}, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	fed.Instrument(reg)

	slow.held.Store(true)
	for i := 0; i < 3; i++ {
		abandon(fed)
	}
	slow.held.Store(false)

	if mi := fed.Members()[0]; mi.State != "closed" || mi.Trips != 0 || mi.LastError != "" {
		t.Errorf("after three abandoned queries the member reads %+v, want closed, never tripped, no error", mi)
	}
	res := fed.Query(context.Background(), client.QueryParams{Node: nodeName(0)})
	if res.Degraded != nil || len(res.Frames) != 1 {
		t.Errorf("the next, unhurried query: %d frames, degraded %+v", len(res.Frames), res.Degraded)
	}
	var metrics strings.Builder
	if err := reg.WriteText(&metrics); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`envfed_member_errors_total{member="slow"} 0`,
		`envfed_member_request_seconds_count{member="slow"} 1`,
	} {
		if !strings.Contains(metrics.String(), want+"\n") {
			t.Errorf("metrics missing %q:\n%s", want, metrics.String())
		}
	}

	// An expired deadline is the member's doing and still counts.
	slow.held.Store(true)
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		fed.Query(ctx, client.QueryParams{Node: nodeName(0)})
		cancel()
	}
	slow.held.Store(false)
	if mi := fed.Members()[0]; mi.State != "open" || mi.Trips != 1 {
		t.Errorf("after three missed deadlines the member reads %+v, want open, tripped once", mi)
	}
}

// TestAbandonedProbeDoesNotWedgeTheBreaker: skipping Record is safe
// because the breaker hands out no probe tokens — half-open allows every
// call — so a probe the caller took away leaves the next one free to go
// and close it.
func TestAbandonedProbeDoesNotWedgeTheBreaker(t *testing.T) {
	m := startGatedMember(t, "m")
	fed, err := New(Config{Members: []Member{m.Member}, Retries: -1, BreakerThreshold: 2, BreakerCooldown: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	m.failing.Store(true)
	for i := 0; i < 2; i++ {
		fed.Query(context.Background(), client.QueryParams{Node: nodeName(0)})
	}
	if mi := fed.Members()[0]; mi.State != "open" {
		t.Fatalf("two failures at threshold 2: %+v", mi)
	}
	m.failing.Store(false)
	time.Sleep(30 * time.Millisecond) // the cooldown, on the breakers' wall clock

	m.held.Store(true)
	abandon(fed) // the probe, taken away
	m.held.Store(false)
	if mi := fed.Members()[0]; mi.State != "half-open" || mi.Trips != 1 {
		t.Errorf("after an abandoned probe the member reads %+v, want half-open, tripped once", mi)
	}
	res := fed.Query(context.Background(), client.QueryParams{Node: nodeName(0)})
	if res.Degraded != nil || len(res.Frames) != 1 {
		t.Errorf("the probe after it: %d frames, degraded %+v", len(res.Frames), res.Degraded)
	}
	if mi := fed.Members()[0]; mi.State != "closed" {
		t.Errorf("after a probe that succeeded the member reads %+v, want closed", mi)
	}
}
