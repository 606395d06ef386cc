package block

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"envmon/internal/telemetry/storage"
)

var (
	keyA = storage.SeriesKey{Node: "c000-001", Backend: "MSR", Domain: "Total Power"}
	keyB = storage.SeriesKey{Node: "c000-002", Backend: "NVML", Domain: "Total Power"}
)

func snapshotA(start uint64, n int, base time.Duration) storage.SeriesSnapshot {
	sn := storage.SeriesSnapshot{Key: keyA, Unit: "W", StartPoint: start}
	for i := 0; i < n; i++ {
		sn.Points = append(sn.Points, storage.Point{
			T: base + time.Duration(i)*time.Second,
			V: 100 + float64(start) + float64(i)*0.5,
		})
	}
	sn.LastT = sn.Points[len(sn.Points)-1].T
	return sn
}

func TestAppendOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	sn := snapshotA(0, 50, 0)
	sn.StartGap = 0
	sn.Gaps = []time.Duration{7 * time.Second, 9 * time.Second}
	sn.LastGapT = 9 * time.Second
	sn.Levels[0] = storage.LevelSnapshot{
		StartBucket: 0,
		Closed: []storage.Bucket{
			{Start: 0, Count: 1, Min: 100, Max: 100, Sum: 100, Last: 100},
			{Start: time.Second, Count: 1, Min: 100.5, Max: 100.5, Sum: 100.5, Last: 100.5},
		},
		Tail: &storage.Bucket{Start: 2 * time.Second, Count: 1, Min: 101, Max: 101, Sum: 101, Last: 101},
	}
	snB := storage.SeriesSnapshot{Key: keyB, Unit: "W", StartPoint: 0,
		Points: []storage.Point{{T: 3 * time.Second, V: 55}}, LastT: 3 * time.Second}
	if err := s.Append([]storage.SeriesSnapshot{sn, snB}); err != nil {
		t.Fatal(err)
	}
	// Second block continues series A at index 50.
	if err := s.Append([]storage.SeriesSnapshot{snapshotA(50, 25, 50*time.Second)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen from disk: aggregates and data must survive.
	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.NumBlocks() != 2 {
		t.Fatalf("NumBlocks=%d, want 2", s.NumBlocks())
	}
	a, ok := s.Agg(keyA)
	if !ok {
		t.Fatal("series A missing after reopen")
	}
	if a.Points != 75 || a.Gaps != 2 || a.Unit != "W" {
		t.Fatalf("agg A = %+v", a)
	}
	if a.MinT != 0 || a.LastT != 50*time.Second+24*time.Second || a.LastGapT != 9*time.Second {
		t.Fatalf("agg A instants = %+v", a)
	}
	if a.Buckets[0] != 2 || a.Tails[0] == nil || a.Tails[0].Start != 2*time.Second {
		t.Fatalf("agg A level 0 = buckets %d tail %+v", a.Buckets[0], a.Tails[0])
	}

	var pts []storage.Point
	if err := s.EachPoint(keyA, 0, 0, func(p storage.Point) { pts = append(pts, p) }); err != nil {
		t.Fatal(err)
	}
	if len(pts) != 75 {
		t.Fatalf("EachPoint streamed %d points, want 75", len(pts))
	}
	if pts[50].T != 50*time.Second || pts[50].V != 150 {
		t.Fatalf("seam point = %+v", pts[50])
	}

	// Window filter: [5s, 10s) covers points 5..9 of block 1 only.
	pts = pts[:0]
	if err := s.EachPoint(keyA, 5*time.Second, 10*time.Second, func(p storage.Point) { pts = append(pts, p) }); err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 || pts[0].T != 5*time.Second {
		t.Fatalf("windowed points = %+v", pts)
	}

	var gaps []time.Duration
	if err := s.EachGap(keyA, 0, 0, func(g time.Duration) { gaps = append(gaps, g) }); err != nil {
		t.Fatal(err)
	}
	if len(gaps) != 2 || gaps[0] != 7*time.Second || gaps[1] != 9*time.Second {
		t.Fatalf("gaps = %v", gaps)
	}

	var bks []storage.Bucket
	err = s.EachClosedBucket(keyA, 0, time.Second, 500*time.Millisecond, 0, func(b storage.Bucket) { bks = append(bks, b) })
	if err != nil {
		t.Fatal(err)
	}
	// Bucket [0,1s) overlaps a window starting at 0.5s; both buckets match.
	if len(bks) != 2 {
		t.Fatalf("EachClosedBucket streamed %d buckets, want 2", len(bks))
	}
}

func TestEmptyAppendIsNoOp(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append(nil); err != nil {
		t.Fatal(err)
	}
	// A snapshot with only a tail update and no sealed data writes nothing.
	sn := storage.SeriesSnapshot{Key: keyA, Unit: "W"}
	sn.Levels[0].Tail = &storage.Bucket{Start: 0, Count: 1}
	if err := s.Append([]storage.SeriesSnapshot{sn}); err != nil {
		t.Fatal(err)
	}
	if s.NumBlocks() != 0 {
		t.Fatalf("empty append produced %d blocks", s.NumBlocks())
	}
}

func TestOpenRemovesStrayTmp(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, "b-00000009.blk.tmp")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("stray tmp file survived Open")
	}
}

func TestOpenRejectsCorruptIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]storage.SeriesSnapshot{snapshotA(0, 10, 0)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, blockName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-footerSz-3] ^= 0xff // inside the index region
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted a block with a corrupt index")
	}
}

func TestSequenceResumesAfterReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]storage.SeriesSnapshot{snapshotA(0, 5, 0)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append([]storage.SeriesSnapshot{snapshotA(5, 5, 5*time.Second)}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, blockName(2))); err != nil {
		t.Fatalf("second block not at seq 2: %v", err)
	}
}
