package telemetry

import (
	"errors"
	"testing"
	"time"
)

func key(node string) SeriesKey {
	return SeriesKey{Node: node, Backend: "MSR", Domain: "Total Power"}
}

func mustIngest(t *testing.T, st *Store, k SeriesKey, at time.Duration, v float64) {
	t.Helper()
	if err := st.Ingest(k, "W", at, v); err != nil {
		t.Fatalf("Ingest(%v, %v, %v): %v", k, at, v, err)
	}
}

func TestIngestAndCounters(t *testing.T) {
	st := New(Options{Shards: 4})
	mustIngest(t, st, key("n0"), 0, 100)
	mustIngest(t, st, key("n0"), time.Second, 110)
	mustIngest(t, st, key("n1"), 500*time.Millisecond, 90)
	if st.NumSeries() != 2 {
		t.Errorf("NumSeries = %d, want 2", st.NumSeries())
	}
	if st.Samples() != 3 {
		t.Errorf("Samples = %d, want 3", st.Samples())
	}
	infos := st.Series()
	if len(infos) != 2 || infos[0].Key.Node != "n0" || infos[1].Key.Node != "n1" {
		t.Fatalf("Series = %+v", infos)
	}
	if infos[0].Samples != 2 || infos[0].Newest != time.Second || infos[0].Oldest != 0 {
		t.Errorf("n0 info = %+v", infos[0])
	}
	if infos[0].Unit != "W" {
		t.Errorf("unit = %q", infos[0].Unit)
	}
}

func TestIngestOrderEnforcedPerSeries(t *testing.T) {
	st := New(Options{})
	mustIngest(t, st, key("n0"), time.Second, 1)
	if err := st.Ingest(key("n0"), "W", 999*time.Millisecond, 2); !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("out-of-order ingest: err = %v, want ErrOutOfOrder", err)
	}
	// Equal timestamps are fine; other series are independent.
	mustIngest(t, st, key("n0"), time.Second, 3)
	mustIngest(t, st, key("n1"), 0, 4)
	if err := st.Ingest(key("n2"), "W", -time.Second, 5); !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("negative-time ingest: err = %v, want ErrOutOfOrder", err)
	}
}

func TestCloseStopsIngestKeepsQueries(t *testing.T) {
	st := New(Options{})
	mustIngest(t, st, key("n0"), 0, 42)
	st.Close()
	if err := st.Ingest(key("n0"), "W", time.Second, 43); !errors.Is(err, ErrClosed) {
		t.Errorf("ingest after Close: err = %v, want ErrClosed", err)
	}
	frames := st.Query(Query{})
	if len(frames) != 1 || len(frames[0].Points) != 1 || frames[0].Points[0].Last != 42 {
		t.Fatalf("closed store not readable: %+v", frames)
	}
}

func TestRawRingEvictsOldest(t *testing.T) {
	st := New(Options{RawCapacity: 4})
	for i := 0; i < 10; i++ {
		mustIngest(t, st, key("n0"), time.Duration(i)*time.Second, float64(i))
	}
	frames := st.Query(Query{Resolution: Raw})
	pts := frames[0].Points
	if len(pts) != 4 || pts[0].T != 6*time.Second || pts[3].T != 9*time.Second {
		t.Fatalf("ring contents = %+v, want samples 6..9", pts)
	}
	// Rollups retain the evicted history.
	roll := st.Query(Query{Resolution: Res1s})
	if len(roll[0].Points) != 10 {
		t.Errorf("1s rollup buckets = %d, want 10 (rollups must outlive raw eviction)", len(roll[0].Points))
	}
	if info := st.Series()[0]; info.Samples != 10 || info.Oldest != 6*time.Second {
		t.Errorf("info = %+v", info)
	}
}

// TestRollupRingEvictsOldest pins each rollup level's retention in a
// memory-only store: at RollupCapacity C a level serves its newest
// min(opened, C) buckets, the newest of them the open bucket with every
// sample it has absorbed so far. C = 1 holds the open bucket alone.
func TestRollupRingEvictsOldest(t *testing.T) {
	for _, capacity := range []int{1, 2, 4} {
		st := New(Options{RollupCapacity: capacity})
		var starts [numRollupLevels][]time.Duration // every bucket each level opened
		var open [numRollupLevels]FramePoint
		for i := 0; i < 400; i++ {
			at, v := time.Duration(i)*700*time.Millisecond, float64(i%13)
			mustIngest(t, st, key("n0"), at, v)
			for l, period := range rollupPeriods {
				start := at - at%period
				if n := len(starts[l]); n == 0 || starts[l][n-1] != start {
					starts[l] = append(starts[l], start)
					open[l] = FramePoint{T: start, Min: v, Max: v, Count: 0}
				}
				b := &open[l]
				b.Min, b.Max, b.Last = min(b.Min, v), max(b.Max, v), v
				b.Count++
			}
			if i%7 != 0 && i != 399 {
				continue
			}
			for l := range rollupPeriods {
				res := Resolution(l + 1)
				pts := st.Query(Query{Resolution: res})[0].Points
				want := starts[l][max(len(starts[l])-capacity, 0):]
				if len(pts) != len(want) {
					t.Fatalf("C=%d sample %d: %s serves %d buckets, want %d", capacity, i, res, len(pts), len(want))
				}
				for j, p := range pts {
					if p.T != want[j] {
						t.Fatalf("C=%d sample %d: %s bucket %d starts at %v, want %v", capacity, i, res, j, p.T, want[j])
					}
				}
				got := pts[len(pts)-1]
				got.Mean = 0
				if got != open[l] {
					t.Fatalf("C=%d sample %d: %s newest bucket %+v, want the open one %+v", capacity, i, res, got, open[l])
				}
			}
		}
	}
}

func TestRollupLadderIncrementalStats(t *testing.T) {
	st := New(Options{})
	k := key("n0")
	// 25 samples at 400 ms spacing: t = 0, 0.4, ..., 9.6 s, values 0..24.
	for i := 0; i < 25; i++ {
		mustIngest(t, st, k, time.Duration(i)*400*time.Millisecond, float64(i))
	}
	// 1 s buckets: t in [0,1) holds samples 0,1,2 (0, .4, .8).
	frames := st.Query(Query{Resolution: Res1s})
	b0 := frames[0].Points[0]
	if b0.Count != 3 || b0.Min != 0 || b0.Max != 2 || b0.Mean != 1 || b0.Last != 2 {
		t.Errorf("1s bucket 0 = %+v", b0)
	}
	// [1,2) holds samples 3,4 (1.2, 1.6).
	b1 := frames[0].Points[1]
	if b1.Count != 2 || b1.Min != 3 || b1.Max != 4 || b1.Mean != 3.5 || b1.Last != 4 {
		t.Errorf("1s bucket 1 = %+v", b1)
	}
	// 10 s buckets: all 25 samples fall in [0,10).
	frames = st.Query(Query{Resolution: Res10s})
	if n := len(frames[0].Points); n != 1 {
		t.Fatalf("10s buckets = %d, want 1", n)
	}
	b := frames[0].Points[0]
	if b.Count != 25 || b.Min != 0 || b.Max != 24 || b.Mean != 12 || b.Last != 24 {
		t.Errorf("10s bucket = %+v", b)
	}
	// 60 s level mirrors it.
	frames = st.Query(Query{Resolution: Res60s})
	if b := frames[0].Points[0]; b.Count != 25 || b.Mean != 12 {
		t.Errorf("60s bucket = %+v", b)
	}
}

func TestIngestSteadyStateZeroAllocs(t *testing.T) {
	st := New(Options{Shards: 8})
	k := key("n0")
	mustIngest(t, st, k, 0, 1) // first touch allocates the series
	at := time.Second
	allocs := testing.AllocsPerRun(1000, func() {
		if err := st.Ingest(k, "W", at, 5); err != nil {
			t.Fatal(err)
		}
		at += time.Second
	})
	if allocs != 0 {
		t.Errorf("steady-state Ingest allocates %.1f per op, want 0", allocs)
	}
}

func TestSplitSeriesName(t *testing.T) {
	cases := []struct{ name, backend, domain string }{
		{"MSR/Total Power", "MSR", "Total Power"},
		{"MICRAS daemon/Die Temperature", "MICRAS daemon", "Die Temperature"},
		{"MSR/DDR/GDDR Temperature", "MSR", "DDR/GDDR Temperature"},
		{"bare", "", "bare"},
	}
	for _, c := range cases {
		b, d := splitSeriesName(c.name)
		if b != c.backend || d != c.domain {
			t.Errorf("splitSeriesName(%q) = (%q, %q), want (%q, %q)", c.name, b, d, c.backend, c.domain)
		}
	}
}
