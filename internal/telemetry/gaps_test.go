package telemetry

import (
	"errors"
	"testing"
	"time"

	"envmon/internal/trace"
)

func TestIngestGapCreatesSeriesAndOrders(t *testing.T) {
	st := New(Options{})
	key := SeriesKey{Node: "n0", Backend: "NVML", Domain: "Total Power"}
	// A device lost before its first successful read is still visible: the
	// gap creates the series.
	if err := st.IngestGap(key, "W", time.Second); err != nil {
		t.Fatal(err)
	}
	if st.NumSeries() != 1 || st.Gaps() != 1 {
		t.Fatalf("series = %d, gaps = %d", st.NumSeries(), st.Gaps())
	}
	infos := st.Series()
	if infos[0].Gaps != 1 || infos[0].Samples != 0 {
		t.Errorf("info = %+v, want 1 gap, 0 samples", infos[0])
	}
	// Gap times are ordered per series, independently of samples.
	if err := st.IngestGap(key, "W", 500*time.Millisecond); !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("regressing gap time: err = %v, want ErrOutOfOrder", err)
	}
	if err := st.Ingest(key, "W", 100*time.Millisecond, 55); err != nil {
		t.Errorf("sample older than the gap rejected: %v", err)
	}
}

func TestQueryFramesCarryWindowedGaps(t *testing.T) {
	st := New(Options{})
	key := SeriesKey{Node: "n0", Backend: "NVML", Domain: "Total Power"}
	for i := 0; i < 10; i++ {
		ts := time.Duration(i) * time.Second
		if i >= 3 && i < 6 {
			if err := st.IngestGap(key, "W", ts); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := st.Ingest(key, "W", ts, 50+float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	frames := st.Query(Query{From: 4 * time.Second, To: 9 * time.Second})
	if len(frames) != 1 {
		t.Fatalf("frames = %d", len(frames))
	}
	f := frames[0]
	if len(f.Points) != 3 { // 6s, 7s, 8s
		t.Errorf("points = %d, want 3", len(f.Points))
	}
	if len(f.Gaps) != 2 || f.Gaps[0] != 4*time.Second || f.Gaps[1] != 5*time.Second {
		t.Errorf("gaps = %v, want [4s 5s] (3s is outside the window)", f.Gaps)
	}
	// Rollup resolutions serve the same gap markers.
	frames = st.Query(Query{Resolution: Res1s})
	if len(frames[0].Gaps) != 3 {
		t.Errorf("rollup gaps = %v, want all 3", frames[0].Gaps)
	}
}

func TestSetCursorStreamsGapsIncrementally(t *testing.T) {
	st := New(Options{})
	set := trace.NewSet()
	set.Meta["node"] = "n0"
	s := set.Add(trace.NewSeries("NVML/Total Power", "W"))
	cur := NewSetCursor(st, "", set)

	s.MustAppend(0, 55)
	s.MustAppendGap(100 * time.Millisecond)
	if err := cur.Flush(); err != nil {
		t.Fatal(err)
	}
	if st.Gaps() != 1 {
		t.Fatalf("gaps after first flush = %d", st.Gaps())
	}
	s.MustAppendGap(200 * time.Millisecond)
	if err := cur.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := cur.Flush(); err != nil { // idempotent: nothing new
		t.Fatal(err)
	}
	if st.Gaps() != 2 {
		t.Errorf("gaps = %d, want 2 — Flush must not re-ingest old markers", st.Gaps())
	}
	if st.Samples() != 1 {
		t.Errorf("samples = %d, want 1", st.Samples())
	}
}
