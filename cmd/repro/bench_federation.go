package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"time"

	"envmon/internal/federation"
	"envmon/internal/telemetry"
	"envmon/internal/telemetry/client"
	"envmon/internal/telemetry/httpapi"
)

// benchFederation measures the scatter-gather tier: federated /topk and
// /query latency and merge throughput over 1/4/16 members × 1k/64k
// series, with real HTTP member calls (httptest servers over in-memory
// stores). It also re-checks the determinism acceptance inline: for a
// fixed series count the merged top-K document must be byte-identical no
// matter how many members the nodes are partitioned across.
func benchFederation(seed uint64) (BenchDoc, error) {
	doc := BenchDoc{Name: "federation", Seed: seed, GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	ctx := context.Background()
	for _, series := range []int{1000, 65536} {
		var baseline []byte
		for _, m := range []int{1, 4, 16} {
			topkWall, queryWall, topkDoc, err := runFederationConfig(seed, series, m, ctx)
			if err != nil {
				return doc, fmt.Errorf("federation m=%d s=%d: %w", m, series, err)
			}
			canon, err := json.Marshal(topkDoc)
			if err != nil {
				return doc, err
			}
			if baseline == nil {
				baseline = canon
			} else if !bytes.Equal(baseline, canon) {
				return doc, fmt.Errorf("federation s=%d: merged top-K differs between 1 and %d members", series, m)
			}
			suffix := fmt.Sprintf("_m%02d_s%d", m, series)
			doc.add("fed_topk_ms"+suffix, topkWall.Seconds()*1000, "ms")
			doc.add("fed_merge_throughput"+suffix, float64(series)/topkWall.Seconds(), "nodes/s")
			doc.add("fed_query_ms"+suffix, queryWall.Seconds()*1000, "ms")
		}
	}
	return doc, nil
}

// runFederationConfig stands up one (members, series) configuration,
// times the federated calls (best of reps for /topk), and returns the
// merged top-K document for the cross-partitioning determinism check.
func runFederationConfig(seed uint64, series, m int, ctx context.Context) (topkWall, queryWall time.Duration, topkDoc httpapi.TopKResult, err error) {
	stores := make([]*telemetry.Store, m)
	members := make([]federation.Member, m)
	for j := 0; j < m; j++ {
		stores[j] = telemetry.New(telemetry.Options{Shards: 4, RawCapacity: 8, RollupCapacity: 4})
		ts := httptest.NewServer(httpapi.New(stores[j], func() time.Duration { return 4 * time.Second }))
		defer ts.Close()
		members[j] = federation.Member{Name: fmt.Sprintf("rack%02d", j), URL: ts.URL}
	}
	defer func() {
		for _, st := range stores {
			st.Close()
		}
	}()
	for i := 0; i < series; i++ {
		key := telemetry.SeriesKey{Node: fmt.Sprintf("n%05d", i), Backend: "rack", Domain: "Total Power"}
		v := float64((i*7919 + int(seed)) % 1000)
		for s := 1; s <= 3; s++ {
			if err = stores[i%m].Ingest(key, "W", time.Duration(s)*time.Second, v); err != nil {
				return
			}
		}
	}
	var fed *federation.Federator
	fed, err = federation.New(federation.Config{Members: members, Retries: -1})
	if err != nil {
		return
	}
	const reps = 3
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		out := fed.TopK(ctx, client.TopKParams{K: 10})
		wall := time.Since(start)
		if out.Degraded != nil {
			err = fmt.Errorf("benchmark members degraded: %+v", out.Degraded.Missing)
			return
		}
		if want := min(10, series); len(out.Nodes) != want {
			err = fmt.Errorf("topk returned %d nodes, want %d", len(out.Nodes), want)
			return
		}
		if rep == 0 || wall < topkWall {
			topkWall, topkDoc = wall, out
		}
	}
	start := time.Now()
	q := fed.Query(ctx, client.QueryParams{Domain: "Total Power", Resolution: "raw", Aggregate: "mean"})
	queryWall = time.Since(start)
	if q.Degraded != nil || len(q.Frames) != series {
		err = fmt.Errorf("federated query returned %d frames (degraded=%v), want %d", len(q.Frames), q.Degraded, series)
	}
	return
}
