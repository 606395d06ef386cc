package telemetry

import (
	"reflect"
	"testing"
	"time"
)

// populate fills a store with a deterministic grid: nodes n00..n(N-1),
// two backends per node, samples every 250 ms over span. Node i's power
// level is 100 + 10*i watts with a small deterministic wiggle.
func populate(t *testing.T, st *Store, nodes int, span time.Duration) {
	t.Helper()
	for at := time.Duration(0); at < span; at += 250 * time.Millisecond {
		for i := 0; i < nodes; i++ {
			base := 100 + 10*float64(i)
			wiggle := float64((int(at/(250*time.Millisecond))+i)%5) - 2
			k1 := SeriesKey{Node: nodeName(i), Backend: "MSR", Domain: "Total Power"}
			k2 := SeriesKey{Node: nodeName(i), Backend: "MICRAS daemon", Domain: "Total Power"}
			mustIngest(t, st, k1, at, base+wiggle)
			mustIngest(t, st, k2, at, base/2+wiggle)
			mustIngest(t, st, SeriesKey{Node: nodeName(i), Backend: "MSR", Domain: "Die Temperature"}, at, 50+wiggle)
		}
	}
}

func nodeName(i int) string {
	return string([]byte{'n', byte('0' + i/10), byte('0' + i%10)})
}

func TestQueryFiltersAndWindow(t *testing.T) {
	st := New(Options{Shards: 4})
	populate(t, st, 4, 10*time.Second)

	// Wildcard everything: 3 series per node.
	if frames := st.Query(Query{}); len(frames) != 12 {
		t.Fatalf("all frames = %d, want 12", len(frames))
	}
	// One node.
	if frames := st.Query(Query{Node: "n01"}); len(frames) != 3 {
		t.Errorf("node frames = %d, want 3", len(frames))
	}
	// One backend across nodes.
	if frames := st.Query(Query{Backend: "MICRAS daemon"}); len(frames) != 4 {
		t.Errorf("backend frames = %d, want 4", len(frames))
	}
	// Domain filter.
	if frames := st.Query(Query{Domain: "Die Temperature"}); len(frames) != 4 {
		t.Errorf("domain frames = %d, want 4", len(frames))
	}
	// Half-open raw window: [1s, 2s) holds 4 of the 250 ms samples.
	frames := st.Query(Query{Node: "n00", Backend: "MSR", Domain: "Total Power",
		From: time.Second, To: 2 * time.Second})
	if len(frames) != 1 || len(frames[0].Points) != 4 {
		t.Fatalf("windowed = %+v", frames)
	}
	if frames[0].Points[0].T != time.Second || frames[0].Points[3].T != 1750*time.Millisecond {
		t.Errorf("window bounds wrong: %+v", frames[0].Points)
	}
	// Frames arrive sorted by key.
	all := st.Query(Query{})
	for i := 1; i < len(all); i++ {
		if !lessKey(all[i-1].Key, all[i].Key) {
			t.Fatalf("frames not sorted at %d: %+v then %+v", i, all[i-1].Key, all[i].Key)
		}
	}
}

func TestQueryAggregates(t *testing.T) {
	st := New(Options{})
	k := key("n0")
	for i, v := range []float64{4, 7, 1, 9, 5} {
		mustIngest(t, st, k, time.Duration(i)*time.Second, v)
	}
	cases := []struct {
		agg  Aggregate
		want float64
	}{{AggMean, 5.2}, {AggMin, 1}, {AggMax, 9}, {AggLast, 5}}
	for _, c := range cases {
		frames := st.Query(Query{Resolution: Raw, Aggregate: c.agg})
		f := frames[0]
		if !f.ReducedOK || f.Reduced != c.want {
			t.Errorf("%v: Reduced = (%v, %v), want (%v, true)", c.agg, f.Reduced, f.ReducedOK, c.want)
		}
	}
	// AggNone computes nothing; empty window reduces to nothing.
	if f := st.Query(Query{})[0]; f.ReducedOK {
		t.Error("AggNone produced a reduction")
	}
	if f := st.Query(Query{From: time.Hour, Aggregate: AggMean})[0]; f.ReducedOK {
		t.Error("empty window produced a reduction")
	}
	// Rollup-resolution mean is sample-weighted across buckets.
	frames := st.Query(Query{Resolution: Res10s, Aggregate: AggMean})
	if f := frames[0]; !f.ReducedOK || f.Reduced != 5.2 {
		t.Errorf("rollup mean = %v, want 5.2", f.Reduced)
	}
}

func TestTopKRanking(t *testing.T) {
	st := New(Options{Shards: 4})
	populate(t, st, 4, 10*time.Second)

	ranked, total := st.TopK(2, "", 0, 0, Raw)
	if len(ranked) != 2 {
		t.Fatalf("ranked = %+v", ranked)
	}
	// Node i draws base + base/2 with base = 100+10i: hottest node last.
	if ranked[0].Node != "n03" || ranked[1].Node != "n02" {
		t.Errorf("order = %s, %s (want n03, n02)", ranked[0].Node, ranked[1].Node)
	}
	if ranked[0].Series != 2 {
		t.Errorf("n03 contributing series = %d, want 2 (MSR + MICRAS)", ranked[0].Series)
	}
	// Total spans all 4 nodes even though only 2 were returned.
	all, watts := st.TopK(0, "", 0, 0, Raw)
	if watts != total || len(all) != 4 {
		t.Errorf("TopK(0) = (%d nodes, %v), want (4, %v)", len(all), watts, total)
	}
	// Temperature series must not leak into the power ranking: expected
	// mean per node is 1.5*(100+10i) + 1.5*wiggle-mean.
	if ranked[0].Watts < 150 || ranked[0].Watts > 250 {
		t.Errorf("n03 watts = %v, outside plausible power band", ranked[0].Watts)
	}
}

// TestShardCountByteIdentity is the determinism acceptance gate: the same
// ingest stream must produce identical query results — frames, rollups,
// rankings — at any shard count.
func TestShardCountByteIdentity(t *testing.T) {
	build := func(shards int) *Store {
		st := New(Options{Shards: shards, RawCapacity: 64, RollupCapacity: 32})
		populate(t, st, 7, 30*time.Second)
		return st
	}
	ref := build(1)
	for _, shards := range []int{2, 8, 64} {
		st := build(shards)
		for _, q := range []Query{
			{Resolution: Raw},
			{Resolution: Res1s, Aggregate: AggMean},
			{Resolution: Res10s, Aggregate: AggMax, From: 5 * time.Second, To: 25 * time.Second},
		} {
			want, got := ref.Query(q), st.Query(q)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("shards=%d query %+v diverged from shards=1", shards, q)
			}
		}
		wantRank, wantTotal := ref.TopK(0, "", 0, 0, Res1s)
		gotRank, gotTotal := st.TopK(0, "", 0, 0, Res1s)
		if !reflect.DeepEqual(wantRank, gotRank) || wantTotal != gotTotal {
			t.Fatalf("shards=%d TopK diverged from shards=1", shards)
		}
		if !reflect.DeepEqual(ref.Series(), st.Series()) {
			t.Fatalf("shards=%d Series() diverged from shards=1", shards)
		}
	}
}

func TestResolutionAndAggregateParsing(t *testing.T) {
	for _, r := range []Resolution{Raw, Res1s, Res10s, Res60s} {
		got, err := ParseResolution(r.String())
		if err != nil || got != r {
			t.Errorf("ParseResolution(%q) = (%v, %v)", r.String(), got, err)
		}
	}
	if _, err := ParseResolution("5m"); err == nil {
		t.Error("unknown resolution accepted")
	}
	if r, err := ParseResolution(""); err != nil || r != Raw {
		t.Error("empty resolution must default to raw")
	}
	if Res10s.Period() != 10*time.Second || Raw.Period() != 0 {
		t.Error("Period wrong")
	}
	for _, a := range []Aggregate{AggNone, AggMean, AggMin, AggMax, AggLast} {
		got, err := ParseAggregate(a.String())
		if err != nil || got != a {
			t.Errorf("ParseAggregate(%q) = (%v, %v)", a.String(), got, err)
		}
	}
	if _, err := ParseAggregate("p99"); err == nil {
		t.Error("unknown aggregate accepted")
	}
}
