package telemetry

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"envmon/internal/telemetry/storage"
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
		if !storage.KeyLess(all[i-1].Key, all[i].Key) {
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

// TestKeyOrderTakesNewSeries: the walks that answer in key order filter a
// cached key-sorted list of every series, rebuilt when a series has been
// created since. A series created between two queries, with a key that
// sorts before every other, is in its key place in the next Frames, TopK
// and Series — which equal a fresh store's, that saw every series before
// its first query — at every shard count.
func TestKeyOrderTakesNewSeries(t *testing.T) {
	type sample struct {
		node, backend string
		v             float64
	}
	var stream []sample
	for i := range 40 {
		stream = append(stream, sample{fmt.Sprintf("n%02d", i), "MSR", float64(i)})
	}
	ingest := func(st *Store, ss ...sample) {
		for _, s := range ss {
			if err := st.Ingest(SeriesKey{Node: s.node, Backend: s.backend, Domain: "Total Power"}, "W", time.Second, s.v); err != nil {
				t.Fatal(err)
			}
		}
	}
	q := Query{Domain: "Total Power", Aggregate: AggMean}
	for _, shards := range []int{1, 8, 64} {
		st := New(Options{Shards: shards})
		ingest(st, stream...)
		for step, next := range []sample{{"a00", "RAPL", 5}, {"a00", "MSR", 7}} {
			st.Frames(q) // the list is cached before the series is created
			ingest(st, next)
			ref := New(Options{Shards: shards})
			ingest(ref, append(slices.Clone(stream), []sample{{"a00", "RAPL", 5}, {"a00", "MSR", 7}}[:step+1]...)...)

			frames := st.Frames(q)
			if len(frames) != 41+step || frames[0].Key.Node != "a00" || frames[step].Key.Backend != "RAPL" {
				t.Fatalf("shards=%d step %d: %d frames, first %+v: the new series is not in its key place", shards, step, len(frames), frames[0].Key)
			}
			if !reflect.DeepEqual(frames, ref.Frames(q)) {
				t.Fatalf("shards=%d step %d: Frames differs from a fresh store's", shards, step)
			}
			ranked, total := st.TopK(0, "", 0, 0, Raw)
			wantRank, wantTotal := ref.TopK(0, "", 0, 0, Raw)
			if !reflect.DeepEqual(ranked, wantRank) || total != wantTotal {
				t.Fatalf("shards=%d step %d: TopK %v differs from a fresh store's %v", shards, step, ranked, wantRank)
			}
			series := st.Series()
			if series[0].Key.Node != "a00" || !reflect.DeepEqual(series, ref.Series()) {
				t.Fatalf("shards=%d step %d: Series differs from a fresh store's", shards, step)
			}
		}
		if ranked, _ := st.TopK(0, "", 0, 0, Raw); ranked[len(ranked)-1] != (NodePower{Node: "n00", Watts: 0, Series: 1}) ||
			!slices.Contains(ranked, NodePower{Node: "a00", Watts: 12, Series: 2}) {
			t.Fatalf("shards=%d: a00's two series, created between queries, did not fold into one node: %v", shards, ranked)
		}
	}
}

// TestFramesOfOneNode: a query that names a node finds the node's run in
// the key-sorted list by bisection. Names that are prefixes of one another
// sort apart ("n1" < "n1-a" < "n10"), and a query for each — or for a node
// no series has, before, between or after the others — answers exactly
// the frames a wildcard query holds for that node, at every shard count.
func TestFramesOfOneNode(t *testing.T) {
	nodes := []string{"n1", "n10", "n1-a", "n", "n2"}
	for _, shards := range []int{1, 8} {
		st := New(Options{Shards: shards})
		for i, node := range nodes {
			for _, backend := range []string{"RAPL", "MSR"} {
				mustIngest(t, st, SeriesKey{Node: node, Backend: backend, Domain: "Total Power"}, time.Second, float64(i))
				mustIngest(t, st, SeriesKey{Node: node, Backend: backend, Domain: "DDR Power"}, time.Second, float64(i))
			}
		}
		all := st.Frames(Query{})
		for _, node := range append(nodes, "", "a", "n0", "n1-", "n11", "zz") {
			for _, q := range []Query{{Node: node}, {Node: node, Backend: "MSR"}, {Node: node, Domain: "DDR Power"}} {
				var want []Frame
				for _, f := range all {
					if q.matches(f.Key) {
						want = append(want, f)
					}
				}
				if got := st.Frames(q); !reflect.DeepEqual(got, want) {
					t.Errorf("shards=%d %+v: %d frames, want %d", shards, q, len(got), len(want))
				}
			}
		}
	}
}

// TestTopKMatchesFrames holds TopK, which lends one frame to every series
// and reads only its reduction, to an oracle that never runs it: the
// per-node sum of Frames' AggMean reductions, folded in key order, over a
// persistent store with sealed blocks. Its series are placed so that a
// frame carried over from one series to the next shows: a gap-only
// series, a series whose early samples leave later windows empty, and
// same-node neighbours in key order whose windows differ in length.
func TestTopKMatchesFrames(t *testing.T) {
	st, err := Open(t.TempDir(), Options{Shards: 4, RawCapacity: 16, RollupCapacity: 4, GapCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	type spec struct {
		key        SeriesKey
		every, end time.Duration // a sample each every up to end; 0: gaps only
	}
	power := func(node, backend string) SeriesKey {
		return SeriesKey{Node: node, Backend: backend, Domain: "Total Power"}
	}
	specs := []spec{
		{power("a", "MSR"), 50 * time.Millisecond, 40 * time.Second},
		{power("a", "NVML"), time.Second, 40 * time.Second},
		{power("a", "RAPL"), 250 * time.Millisecond, 6 * time.Second},
		{power("b", "MSR"), 100 * time.Millisecond, 4 * time.Second},
		{power("c", "MSR"), 0, 40 * time.Second},
		{power("d", "MSR"), 700 * time.Millisecond, 40 * time.Second},
		{power("d", "RAPL"), 50 * time.Millisecond, 40 * time.Second},
		{SeriesKey{Node: "d", Backend: "MSR", Domain: "Die Temperature"}, 50 * time.Millisecond, 40 * time.Second},
	}
	for at := time.Duration(0); at < 40*time.Second; at += 50 * time.Millisecond {
		if at == 20*time.Second {
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		for i, sp := range specs {
			switch {
			case at >= sp.end:
			case sp.every == 0:
				if at%time.Second == 0 {
					if err := st.IngestGap(sp.key, "W", at); err != nil {
						t.Fatal(err)
					}
				}
			case at%sp.every == 0:
				mustIngest(t, st, sp.key, at, 100+float64(i*37)+float64(int(at/sp.every)%11)/4)
			}
		}
	}
	if st.StorageStats().Blocks == 0 {
		t.Fatal("no block was sealed: the walk reads memory alone")
	}
	windows := [][2]time.Duration{{0, 0}, {0, 3 * time.Second}, {2 * time.Second, 8 * time.Second},
		{7 * time.Second, 0}, {15 * time.Second, 25 * time.Second}, {39 * time.Second, 0}, {time.Hour, 0}}
	for _, res := range []Resolution{Raw, Res1s, Res10s, Res60s} {
		for _, w := range windows {
			var want []NodePower
			var wantTotal float64
			for _, f := range st.Frames(Query{Domain: "Total Power", From: w[0], To: w[1], Resolution: res, Aggregate: AggMean}) {
				if !f.ReducedOK {
					continue
				}
				if n := len(want); n > 0 && want[n-1].Node == f.Key.Node {
					want[n-1].Watts += f.Reduced
					want[n-1].Series++
				} else {
					want = append(want, NodePower{Node: f.Key.Node, Watts: f.Reduced, Series: 1})
				}
			}
			for _, np := range want {
				wantTotal += np.Watts
			}
			slices.SortFunc(want, CompareRank)
			got, total := st.TopK(0, "", w[0], w[1], res)
			if len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) || total != wantTotal {
				t.Errorf("%s [%v, %v): TopK = %v total %v, Frames fold to %v total %v", res, w[0], w[1], got, total, want, wantTotal)
			}
		}
	}
}

// TestTopKAllocPerSeries gates what a ranking allocates per matching
// series on the shape of BenchmarkTelemetry_Query's topk (1024 series in 8
// shards, 256 raw samples each), at Raw and at 10 s. TopK lends one frame
// to every series and keeps one NodePower each, about 55 B a series; a
// Frame built per series costs about 330.
func TestTopKAllocPerSeries(t *testing.T) {
	const nseries, runs = 1024, 5
	st := New(Options{Shards: 8, RawCapacity: 256})
	keys := benchKeys(nseries)
	for round := range 256 {
		for i, k := range keys {
			mustIngest(t, st, k, time.Duration(round)*500*time.Millisecond, 100+float64(i%7))
		}
	}
	for _, res := range []Resolution{Raw, Res10s} {
		st.TopK(10, "", 0, 0, res) // the key-sorted list is built once, off the count
		perSeries := math.Inf(1)
		for range runs {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ranked, _ := st.TopK(10, "", 0, 0, res)
			runtime.ReadMemStats(&after)
			if len(ranked) != 10 {
				t.Fatalf("%s: ranked %d nodes, want 10", res, len(ranked))
			}
			perSeries = min(perSeries, float64(after.TotalAlloc-before.TotalAlloc)/nseries)
		}
		t.Logf("TopK at %s over %d series: %.0f B per series", res, nseries, perSeries)
		if perSeries > 96 {
			t.Errorf("TopK at %s allocates %.0f B per matching series, gate 96", res, perSeries)
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
