package federation

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"envmon/internal/telemetry"
	"envmon/internal/telemetry/httpapi"
)

// BenchmarkFederatedRecent is the fleet-wide "recent" a controller sends
// every tick, through a front-end over real sockets: 4 members × 512 nodes,
// 4 raw points each in the window, agg=last, one closed-loop client. What
// it times is member scan + member encode + fan-out + merge + the
// front-end's own encode + the client reading the body; bench/'s
// fed-fanout workload is the same request at the same size with the
// percentiles and the per-layer split.
func BenchmarkFederatedRecent(b *testing.B) {
	const members, nodesPerMember, points = 4, 512, 4
	simNow := func() time.Duration { return (points + 1) * time.Second }
	ms := make([]Member, members)
	for j := range ms {
		st := telemetry.New(telemetry.Options{Shards: 4, RawCapacity: 8, RollupCapacity: 4})
		b.Cleanup(st.Close)
		for i := 0; i < nodesPerMember; i++ {
			node := j + i*members // round-robin, as startMembers partitions
			key := telemetry.SeriesKey{Node: nodeName(node), Backend: "rack", Domain: "Total Power"}
			for s := 1; s <= points; s++ {
				if err := st.Ingest(key, "W", time.Duration(s)*time.Second, 100+float64((node*7919+s)%2000)/4); err != nil {
					b.Fatal(err)
				}
			}
		}
		ts := httptest.NewServer(httpapi.New(st, simNow))
		b.Cleanup(ts.Close)
		ms[j] = Member{Name: fmt.Sprintf("rack%02d", j), URL: ts.URL}
	}
	fed, err := New(Config{Members: ms, Retries: -1})
	if err != nil {
		b.Fatal(err)
	}
	front := httptest.NewServer(NewServer(fed))
	b.Cleanup(front.Close)
	url := front.URL + "/query?domain=Total+Power&from=1s&agg=last"

	fetch := func() int64 {
		resp, err := http.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d after %d bytes: %v", resp.StatusCode, n, err)
		}
		return n
	}
	b.SetBytes(fetch()) // and the connections are warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fetch()
	}
}
