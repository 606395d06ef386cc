package block

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"testing"
	"time"

	"envmon/internal/telemetry/storage"
)

var (
	keyA = storage.SeriesKey{Node: "c000-001", Backend: "MSR", Domain: "Total Power"}
	keyB = storage.SeriesKey{Node: "c000-002", Backend: "NVML", Domain: "Total Power"}
)

// aggOf is key's aggregate as Each reports it, and whether it has one.
func aggOf(s *Store, key storage.SeriesKey) (a Agg, ok bool) {
	s.Each(func(k storage.SeriesKey, ka Agg) {
		if k == key {
			a, ok = ka, true
		}
	})
	return a, ok
}

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
	a, ok := aggOf(s, keyA)
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

// TestOpenRefusesUnknownBlockVersion rewrites a sealed file's header, its
// version word to the one after the newest in one case and its magic to
// XXXX in the other: Open must refuse both, with the error that names what
// is wrong.
func TestOpenRefusesUnknownBlockVersion(t *testing.T) {
	for _, tc := range []struct {
		name  string
		patch func(header []byte)
		want  error
	}{
		{"the next version", func(h []byte) { binary.LittleEndian.PutUint32(h[4:], version+1) }, ErrUnknownVersion},
		{"magic XXXX", func(h []byte) { copy(h, "XXXX") }, ErrNotBlock},
	} {
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
		tc.patch(data[:8])
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err = Open(dir)
		if err == nil {
			s.Close()
			t.Fatalf("%s: Open accepted the file", tc.name)
		}
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: Open said %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestSealFailsUntilItsRenameIsDurable: a seal whose directory cannot be
// opened or synced after the rename fails. Append publishes nothing, the
// retry rewrites the same file, and a reopen serves each sample once.
func TestSealFailsUntilItsRenameIsDurable(t *testing.T) {
	for _, tc := range []struct {
		name string
		fail func()
	}{
		{"open", func() { openDir = func(string) (*os.File, error) { return nil, syscall.EIO } }},
		{"sync", func() { syncDir = func(*os.File) error { return syscall.EIO } }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			snaps := []storage.SeriesSnapshot{snapshotA(0, 20, 0)}
			tc.fail()
			err = s.Append(snaps)
			openDir, syncDir = os.Open, (*os.File).Sync
			if !errors.Is(err, syscall.EIO) {
				t.Fatalf("Append with an unsyncable directory: err = %v, want EIO", err)
			}
			if _, ok := aggOf(s, keyA); ok || s.NumBlocks() != 0 {
				t.Fatalf("a failed seal published %d blocks", s.NumBlocks())
			}
			if err := s.Append(snaps); err != nil {
				t.Fatalf("retry: %v", err)
			}
			if names, _ := filepath.Glob(filepath.Join(dir, "*")); len(names) != 1 || filepath.Base(names[0]) != blockName(1) {
				t.Fatalf("after the retry the directory holds %v, want one %s", names, blockName(1))
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			s, err = Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var pts []storage.Point
			if err := s.EachPoint(keyA, 0, 0, func(p storage.Point) { pts = append(pts, p) }); err != nil {
				t.Fatal(err)
			}
			if len(pts) != 20 || pts[0].T != 0 || pts[19].T != 19*time.Second {
				t.Fatalf("reopened store serves %d points (%v), want each of the 20 once", len(pts), pts)
			}
		})
	}
}

// TestOpenRefusesAnOverstatedCount forges one entry count of a sealed
// file's index, with the index checksum made to match, to 4 194 404: more
// points, gap markers or closed buckets than its chunk's bytes could hold.
// Open must refuse the file, since a scan sizes its destination from the
// counts before it decodes a byte: the forged point count once opened, and
// one raw query allocated 67 MB before the decoder failed.
func TestOpenRefusesAnOverstatedCount(t *testing.T) {
	const forged = 4_194_404
	for _, field := range []string{"points", "gaps", "closed buckets"} {
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		sn := snapshotA(0, 100, 0)
		sn.Gaps, sn.LastGapT = []time.Duration{3 * time.Second, 7 * time.Second}, 7*time.Second
		sn.Levels[0].Closed = []storage.Bucket{{Start: 0, Count: 1, Min: 1, Max: 1, Sum: 1, Last: 1}}
		if err := s.Append([]storage.SeriesSnapshot{sn}); err != nil {
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
		footer := data[len(data)-footerSz:]
		idxOff := binary.LittleEndian.Uint64(footer[8:])
		idx := data[idxOff : len(data)-footerSz]

		// Walk the one entry up to the count, as parseIndex reads it.
		r := storage.Reader{P: idx[4:]}
		at := func() int { return len(idx) - len(r.P) }
		for range 4 {
			r.Str()
		}
		r.Uvarint() // startPoint
		pos := at()
		if field != "points" {
			r.Uvarint()
			r.Varint() // minT, maxT, lastGapT
			r.Varint()
			r.Varint()
			r.Uvarint() // startGap
			pos = at()
		}
		if field == "closed buckets" {
			r.Uvarint()
			for range 2 { // the point and gap chunk refs
				r.Uvarint()
				r.Uvarint()
				r.Uint32()
			}
			r.Uvarint() // startBucket
			pos = at()
		}
		r.Uvarint()
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		forgedIdx := binary.AppendUvarint(slices.Clone(idx[:pos]), forged)
		forgedIdx = append(forgedIdx, idx[at():]...)
		out := append(slices.Clone(data[:idxOff]), forgedIdx...)
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(forgedIdx, storage.Castagnoli))
		out = binary.LittleEndian.AppendUint32(out, uint32(len(forgedIdx)))
		out = binary.LittleEndian.AppendUint64(out, idxOff)
		out = append(out, trailer...)
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := Open(dir); err == nil {
			n := s.PointsIn(keyA, 0, 0)
			s.Close()
			t.Fatalf("%s: Open accepted %d %s in a file of %d bytes (PointsIn %d)", field, forged, field, len(out), n)
		}
	}
}
