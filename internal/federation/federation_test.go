package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"envmon/internal/obs"
	"envmon/internal/telemetry"
	"envmon/internal/telemetry/client"
	"envmon/internal/telemetry/httpapi"
)

// testNodeCount picks the synthetic fleet size: the full 64k-node
// acceptance run normally, a small fleet under -short (and so under
// -race in CI).
func testNodeCount(t *testing.T) int {
	t.Helper()
	if testing.Short() {
		return 512
	}
	return 65536
}

func nodeName(i int) string { return fmt.Sprintf("n%05d", i) }

// ingestNode writes node i's deterministic synthetic series into st.
// Values repeat across nodes ((i*7919)%1000), so the ranking is full of
// exact watt ties and the cross-member tie-break is genuinely exercised.
// Every 97th node also records a gap marker mid-window.
func ingestNode(t *testing.T, st *telemetry.Store, i int) {
	t.Helper()
	key := telemetry.SeriesKey{Node: nodeName(i), Backend: "rack", Domain: "Total Power"}
	v := float64((i * 7919) % 1000)
	for s := 1; s <= 3; s++ {
		if err := st.Ingest(key, "W", time.Duration(s)*time.Second, v); err != nil {
			t.Fatal(err)
		}
	}
	if i%97 == 0 {
		if err := st.IngestGap(key, "W", 3500*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
}

var smallStore = telemetry.Options{
	Shards:         4,
	RawCapacity:    8,
	RollupCapacity: 4,
	GapCapacity:    4,
}

// startMembers partitions nodes round-robin across m envmond-equivalent
// member servers (httpapi over an in-memory store) and returns them.
// Cleanup tears everything down.
func startMembers(t *testing.T, nodes, m int) []Member {
	t.Helper()
	simNow := func() time.Duration { return 4 * time.Second }
	members := make([]Member, m)
	stores := make([]*telemetry.Store, m)
	for j := 0; j < m; j++ {
		st := telemetry.New(smallStore)
		stores[j] = st
		ts := httptest.NewServer(httpapi.New(st, simNow))
		t.Cleanup(ts.Close)
		members[j] = Member{Name: fmt.Sprintf("rack%02d", j), URL: ts.URL}
	}
	t.Cleanup(func() {
		for _, st := range stores {
			st.Close()
		}
	})
	for i := 0; i < nodes; i++ {
		ingestNode(t, stores[i%m], i)
	}
	return members
}

// startFederation builds a federated front-end over members and returns
// its base URL plus the federator (for direct assertions).
func startFederation(t *testing.T, members []Member, reg *obs.Registry) (string, *Federator) {
	t.Helper()
	fed, err := New(Config{Members: members, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(fed)
	srv.Instrument(reg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts.URL, fed
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, body
}

// TestPartitionInvariance is the acceptance property: re-partitioning the
// same synthetic series set across 1/2/4/16 members leaves every
// federated /topk and /query answer byte-identical.
func TestPartitionInvariance(t *testing.T) {
	nodes := testNodeCount(t)
	paths := []string{
		"/topk?k=10",
		"/topk?k=100&domain=Total+Power",
		"/query?domain=Total+Power&agg=mean&res=raw",
		"/query?node=" + nodeName(42),
		"/query?node=" + nodeName(97), // a node with a gap marker
	}
	baseline := make(map[string][]byte, len(paths))
	for _, m := range []int{1, 2, 4, 16} {
		t.Run(fmt.Sprintf("members=%d", m), func(t *testing.T) {
			base, _ := startFederation(t, startMembers(t, nodes, m), nil)
			for _, p := range paths {
				status, body := get(t, base+p)
				if status != http.StatusOK {
					t.Fatalf("GET %s: status %d: %s", p, status, body)
				}
				if prev, ok := baseline[p]; !ok {
					baseline[p] = body
				} else if !bytes.Equal(prev, body) {
					t.Errorf("GET %s: %d-member response differs from 1-member baseline\n got: %.200s\nwant: %.200s",
						p, m, body, prev)
				}
			}
		})
	}

	// Spot-check the baseline itself: k bounds the ranking, the gap node
	// kept its marker, and nothing was degraded.
	var topk httpapi.TopKResult
	if err := json.Unmarshal(baseline["/topk?k=10"], &topk); err != nil {
		t.Fatal(err)
	}
	if len(topk.Nodes) != 10 || topk.Degraded != nil {
		t.Fatalf("baseline topk shape: %d nodes, degraded=%v", len(topk.Nodes), topk.Degraded)
	}
	if topk.TotalWatts <= 0 {
		t.Fatalf("baseline total = %v", topk.TotalWatts)
	}
	var gapped httpapi.QueryResult
	if err := json.Unmarshal(baseline["/query?node="+nodeName(97)], &gapped); err != nil {
		t.Fatal(err)
	}
	if len(gapped.Frames) != 1 || len(gapped.Frames[0].GapsNS) != 1 {
		t.Fatalf("gap marker lost in federation: %+v", gapped.Frames)
	}
}

// metricValue scrapes one un-labelled metric from a /metrics exposition.
func metricValue(t *testing.T, body []byte, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` ([0-9eE+.-]+)$`)
	m := re.FindSubmatch(body)
	if m == nil {
		t.Fatalf("metric %s not in exposition:\n%s", name, body)
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestDeadMemberExplicitGap is the chaos variant: one member permanently
// dead. Every answer must carry an explicit missing-member section — and
// a filtered query whose node lives on the dead rack answers 200 + empty
// + degraded, never 404 and never silent zeros.
func TestDeadMemberExplicitGap(t *testing.T) {
	members := startMembers(t, 64, 4)
	// Kill rack02 by pointing it at a closed listener.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	members[2].URL = deadURL

	reg := obs.NewRegistry()
	base, _ := startFederation(t, members, reg)

	status, body := get(t, base+"/topk?k=5")
	if status != http.StatusOK {
		t.Fatalf("topk status %d: %s", status, body)
	}
	var topk httpapi.TopKResult
	if err := json.Unmarshal(body, &topk); err != nil {
		t.Fatal(err)
	}
	if topk.Degraded == nil {
		t.Fatal("dead member produced no degraded section")
	}
	if topk.Degraded.Members != 4 || topk.Degraded.Responded != 3 {
		t.Fatalf("degraded shape: %+v", topk.Degraded)
	}
	if len(topk.Degraded.Missing) != 1 || topk.Degraded.Missing[0].Member != "rack02" {
		t.Fatalf("missing members: %+v", topk.Degraded.Missing)
	}
	if topk.Degraded.Missing[0].Reason == "" {
		t.Fatal("missing member has no reason")
	}
	if len(topk.Nodes) != 5 {
		t.Fatalf("surviving racks still rank: got %d nodes", len(topk.Nodes))
	}

	// Node 42 lives on rack02 (42 % 4 == 2): 200 + degraded, not 404.
	status, body = get(t, base+"/query?node="+nodeName(42))
	if status != http.StatusOK {
		t.Fatalf("query for dead rack's node: status %d (must be a 200 partial, never 404): %s", status, body)
	}
	var q httpapi.QueryResult
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	if len(q.Frames) != 0 || q.Degraded == nil {
		t.Fatalf("dead rack's node: frames=%d degraded=%v (want empty+degraded)", len(q.Frames), q.Degraded)
	}

	// A node on a live rack still answers fine (with the degraded section).
	status, body = get(t, base+"/query?node="+nodeName(41))
	if status != http.StatusOK {
		t.Fatalf("live node status %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	if len(q.Frames) != 1 || q.Degraded == nil {
		t.Fatalf("live node under partial failure: frames=%d degraded=%v", len(q.Frames), q.Degraded)
	}

	// Health degrades and names the member.
	status, body = get(t, base+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz status %d", status)
	}
	var h httpapi.Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || h.Federation == nil || len(h.Federation.Missing) != 1 {
		t.Fatalf("federated health: %s", body)
	}

	// The acceptance metric: every partial answer above incremented it.
	_, metrics := get(t, base+"/metrics")
	if v := metricValue(t, metrics, "envfed_partial_responses_total"); v < 4 {
		t.Fatalf("envfed_partial_responses_total = %v, want >= 4", v)
	}
}

// TestBreakerOpensAndSkips: repeated failures open the dead member's
// breaker; later queries skip it outright and say so.
func TestBreakerOpensAndSkips(t *testing.T) {
	live := startMembers(t, 8, 1)
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	members := append(live, Member{Name: "rack99", URL: deadURL})

	fed, err := New(Config{Members: members, Retries: -1, BreakerThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		fed.TopK(ctx, client.TopKParams{K: 3})
	}
	var deadInfo *httpapi.MemberInfo
	for _, mi := range fed.Members() {
		if mi.Name == "rack99" {
			deadInfo = &mi
		}
	}
	if deadInfo == nil {
		t.Fatal("rack99 missing from Members()")
	}
	if deadInfo.State != "open" {
		t.Fatalf("dead member breaker state = %q, want open (trips=%d lastErr=%q)",
			deadInfo.State, deadInfo.Trips, deadInfo.LastError)
	}
	out := fed.TopK(ctx, client.TopKParams{K: 3})
	if out.Degraded == nil || len(out.Degraded.Missing) != 1 {
		t.Fatalf("degraded after breaker open: %+v", out.Degraded)
	}
	if mm := out.Degraded.Missing[0]; mm.Reason != "breaker open" {
		t.Fatalf("skip reason = %q, want \"breaker open\"", mm.Reason)
	}
}

// TestQueryDeadlineProducesDegraded: a member slower than deadline_ms is
// reported missing instead of hanging the whole federated answer.
func TestQueryDeadlineProducesDegraded(t *testing.T) {
	live := startMembers(t, 8, 1)
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(slow.Close)
	members := append(live, Member{Name: "slow", URL: slow.URL})

	base, _ := startFederation(t, members, nil)
	start := time.Now()
	status, body := get(t, base+"/topk?k=3&deadline_ms=200")
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline did not bound the fan-out: took %v", elapsed)
	}
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var topk httpapi.TopKResult
	if err := json.Unmarshal(body, &topk); err != nil {
		t.Fatal(err)
	}
	if topk.Degraded == nil || len(topk.Degraded.Missing) != 1 || topk.Degraded.Missing[0].Member != "slow" {
		t.Fatalf("slow member not reported missing: %+v", topk.Degraded)
	}
	if len(topk.Nodes) != 3 {
		t.Fatalf("live rack's ranking lost: %+v", topk.Nodes)
	}
}

// TestServerRejectsBadInput: validation happens at the front-end, before
// any fan-out.
func TestServerRejectsBadInput(t *testing.T) {
	base, _ := startFederation(t, startMembers(t, 4, 1), nil)
	for _, p := range []string{
		"/topk?k=bogus",
		"/topk?k=-1",
		"/topk?k=100000000",
		"/query?res=fortnightly",
		"/query?agg=median",
		"/query?deadline_ms=-5",
	} {
		if status, body := get(t, base+p); status != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400: %s", p, status, body)
		}
	}
	resp, err := http.Post(base+"/topk", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status %d, want 405", resp.StatusCode)
	}
}

// TestMembersEndpoint lists every configured member with breaker state.
func TestMembersEndpoint(t *testing.T) {
	base, _ := startFederation(t, startMembers(t, 4, 2), nil)
	status, body := get(t, base+"/members")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	var mr httpapi.MembersResult
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if len(mr.Members) != 2 || mr.Members[0].Name != "rack00" || mr.Members[0].State != "closed" {
		t.Fatalf("members: %s", body)
	}
}
