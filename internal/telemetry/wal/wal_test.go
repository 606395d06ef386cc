package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"envmon/internal/telemetry/storage"
	"envmon/internal/trace"
)

var testKey = storage.SeriesKey{Node: "c000-001", Backend: "MSR", Domain: "Total Power"}

// eachAppender runs fn once per appender: the mapped window (Linux only)
// and write(2), forced by a fallocate that answers EOPNOTSUPP — the path a
// filesystem without preallocation takes.
func eachAppender(t *testing.T, fn func(t *testing.T, mapped bool)) {
	t.Run("mapped", func(t *testing.T) {
		if runtime.GOOS != "linux" {
			t.Skip("no mapped appender off Linux")
		}
		fn(t, true)
	})
	t.Run("write", func(t *testing.T) {
		forceWriteAppender(t)
		fn(t, false)
	})
}

func forceWriteAppender(t *testing.T) {
	TestHookFallocate = func(int, uint32, int64, int64) error { return syscall.EOPNOTSUPP }
	t.Cleanup(func() { TestHookFallocate = nil })
}

// create opens a journal and checks every shard got the appender the
// sub-test is about.
func create(t *testing.T, dir string, shards int, mapped bool) *WAL {
	t.Helper()
	w, err := Create(dir, shards)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < shards; i++ {
		if got := w.Shard(i).Mapped(); got != mapped {
			t.Fatalf("shard %d: Mapped() = %v, want %v", i, got, mapped)
		}
	}
	return w
}

func TestAppendReplayRoundTrip(t *testing.T) {
	eachAppender(t, func(t *testing.T, mapped bool) {
		dir := t.TempDir()
		w := create(t, dir, 2, mapped)
		sh := w.Shard(0)
		ref, err := sh.AppendSeries(testKey, "W")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			if err := sh.AppendSample(ref, uint64(i), time.Duration(i)*time.Second, float64(i)*1.5); err != nil {
				t.Fatal(err)
			}
		}
		if err := sh.AppendGap(ref, 0, 42*time.Second); err != nil {
			t.Fatal(err)
		}
		key2 := storage.SeriesKey{Node: "c000-002", Backend: "NVML", Domain: "Total Power"}
		sh2 := w.Shard(1)
		ref2, err := sh2.AppendSeries(key2, "W")
		if err != nil {
			t.Fatal(err)
		}
		if err := sh2.AppendSample(ref2, 0, time.Second, 99); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		samples, gaps, err := replayFlat(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(samples) != 101 || len(gaps) != 1 {
			t.Fatalf("replayed %d samples %d gaps, want 101 and 1", len(samples), len(gaps))
		}
		// Sorted by (key, index): c000-001 first.
		for i := 0; i < 100; i++ {
			s := samples[i]
			if s.Key != testKey || s.Unit != "W" || s.Index != uint64(i) ||
				s.T != time.Duration(i)*time.Second || s.V != float64(i)*1.5 {
				t.Fatalf("sample %d = %+v", i, s)
			}
		}
		if s := samples[100]; s.Key != key2 || s.V != 99 {
			t.Fatalf("sample 100 = %+v", s)
		}
		if g := gaps[0]; g.Key != testKey || g.Index != 0 || g.T != 42*time.Second {
			t.Fatalf("gap = %+v", g)
		}

		// The same stream as run records — of one sample, of many, with
		// repeated instants, under an offset — replays as the same samples.
		dir = t.TempDir()
		w = create(t, dir, 1, mapped)
		sh = w.Shard(0)
		if ref, err = sh.AppendSeries(testKey, "W"); err != nil {
			t.Fatal(err)
		}
		const offset = 7 * time.Second
		var want []Sample
		for _, n := range []int{1, 34, 1, 20} {
			first, run := uint64(len(want)), make([]trace.Sample, n)
			for i := range run {
				idx := first + uint64(i)
				run[i] = trace.Sample{T: time.Duration(idx/2) * time.Second, V: float64(idx) * 1.5}
				want = append(want, Sample{Key: testKey, Unit: "W", Index: idx, T: run[i].T + offset, V: run[i].V})
			}
			if err := sh.AppendRun(ref, first, run, offset); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if samples, gaps, err = replayFlat(dir); err != nil || len(gaps) != 0 || !reflect.DeepEqual(samples, want) {
			t.Fatalf("run records replayed %d samples %d gaps (err %v), want the %d appended and 0", len(samples), len(gaps), err, len(want))
		}
	})
}

func TestReplayTornTail(t *testing.T) {
	eachAppender(t, func(t *testing.T, mapped bool) {
		dir := t.TempDir()
		w := create(t, dir, 1, mapped)
		sh := w.Shard(0)
		ref, _ := sh.AppendSeries(testKey, "W")
		for i := 0; i < 10; i++ {
			if err := sh.AppendSample(ref, uint64(i), time.Duration(i), float64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		// Tear the last record mid-payload, as a crash during a write would.
		seg := filepath.Join(dir, "0", "00000001.wal")
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(seg, data[:len(data)-5], 0o644); err != nil {
			t.Fatal(err)
		}

		samples, _, err := replayFlat(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(samples) != 9 {
			t.Fatalf("replayed %d samples after torn tail, want 9", len(samples))
		}

		// Corrupt a middle byte: replay stops there but keeps the prefix.
		data[30] ^= 0xff
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		samples, _, err = replayFlat(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(samples) >= 10 {
			t.Fatalf("replayed %d samples from a corrupt segment", len(samples))
		}
	})
}

func TestRotateDropsSegmentAndResetsRefs(t *testing.T) {
	eachAppender(t, func(t *testing.T, mapped bool) {
		dir := t.TempDir()
		w := create(t, dir, 1, mapped)
		sh := w.Shard(0)
		ref, _ := sh.AppendSeries(testKey, "W")
		if err := sh.AppendSample(ref, 0, 0, 1); err != nil {
			t.Fatal(err)
		}
		if err := sh.Rotate(); err != nil {
			t.Fatal(err)
		}
		// Old segment is gone; its records do not replay.
		samples, _, err := replayFlat(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(samples) != 0 {
			t.Fatalf("replayed %d samples after rotate, want 0", len(samples))
		}
		// The new segment re-declares series.
		ref2, err := sh.AppendSeries(testKey, "W")
		if err != nil {
			t.Fatal(err)
		}
		if err := sh.AppendSample(ref2, 1, time.Second, 2); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		samples, _, err = replayFlat(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(samples) != 1 || samples[0].Index != 1 {
			t.Fatalf("samples after rotate = %+v", samples)
		}
	})
}

func TestCreateResumesSequenceNumbers(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Shard(0).Rotate(); err != nil { // now at seq 2
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := Create(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := w2.Shard(0).seq; got != 3 {
		t.Fatalf("resumed seq = %d, want 3", got)
	}
}

func TestAppendSteadyStateZeroAllocs(t *testing.T) {
	eachAppender(t, func(t *testing.T, mapped bool) {
		w := create(t, t.TempDir(), 1, mapped)
		defer w.Close()
		sh := w.Shard(0)
		ref, _ := sh.AppendSeries(testKey, "W")
		i := uint64(0)
		allocs := testing.AllocsPerRun(200, func() {
			if err := sh.AppendSample(ref, i, time.Duration(i)*time.Millisecond, 3.14); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs != 0 {
			t.Fatalf("steady-state append allocates %.1f times per record, want 0", allocs)
		}
		// A run record outgrows the scratch buffer once, then reuses it.
		run := make([]trace.Sample, 34)
		appendRun := func() {
			for j := range run {
				run[j] = trace.Sample{T: time.Duration(i+uint64(j)) * time.Millisecond, V: 3.14}
			}
			if err := sh.AppendRun(ref, i, run, time.Hour); err != nil {
				t.Fatal(err)
			}
			i += uint64(len(run))
		}
		appendRun()
		if allocs := testing.AllocsPerRun(200, appendRun); allocs != 0 {
			t.Fatalf("steady-state run append allocates %.1f times per record, want 0", allocs)
		}
	})
}

// TestRecordsAcrossWindows puts one record across the first window's end
// and appends one longer than a whole window; both must round-trip, and
// the closed segment must be byte for byte the same file whichever
// appender wrote it.
func TestRecordsAcrossWindows(t *testing.T) {
	straddler := storage.SeriesKey{Node: strings.Repeat("s", 300), Backend: "MSR", Domain: "Total Power"}
	giant := storage.SeriesKey{Node: strings.Repeat("g", window+window/2), Backend: "MSR", Domain: "Total Power"}
	var files [][]byte
	eachAppender(t, func(t *testing.T, mapped bool) {
		dir := t.TempDir()
		w := create(t, dir, 1, mapped)
		sh := w.Shard(0)
		var want []Sample
		sample := func(ref uint64, key storage.SeriesKey, idx uint64) {
			t.Helper()
			s := Sample{Key: key, Unit: "W", Index: idx, T: time.Duration(idx) * time.Millisecond, V: float64(idx)}
			if err := sh.AppendSample(ref, s.Index, s.T, s.V); err != nil {
				t.Fatal(err)
			}
			want = append(want, s)
		}
		// Keys replay in sorted order, so append them that way: "c000…"
		// up to the window's last 100 bytes, then "ggg…", then "sss…".
		ref, _ := sh.AppendSeries(testKey, "W")
		for i := uint64(0); sh.Size() < window-100; i++ {
			sample(ref, testKey, i)
		}
		sref, err := sh.AppendSeries(straddler, "W") // 300 bytes into the 100 left
		if err != nil {
			t.Fatal(err)
		}
		gref, err := sh.AppendSeries(giant, "W")
		if err != nil {
			t.Fatal(err)
		}
		sample(gref, giant, 0)
		sample(sref, straddler, 0)
		// Run records the same way, under the key that sorts last: one longer
		// than a window, then enough mid-sized ones to cover a window and a
		// half, so wherever the windows fall one of them lies across an edge.
		runs := storage.SeriesKey{Node: "t000-001", Backend: "MSR", Domain: "Total Power"}
		rref, err := sh.AppendSeries(runs, "W")
		if err != nil {
			t.Fatal(err)
		}
		idx := uint64(0)
		for _, n := range append([]int{window / 8}, slices.Repeat([]int{1000}, 40)...) {
			run := make([]trace.Sample, n)
			for i := range run {
				s := Sample{Key: runs, Unit: "W", Index: idx, T: time.Duration(idx) * time.Millisecond, V: float64(idx)}
				run[i] = trace.Sample{T: s.T, V: s.V}
				want = append(want, s)
				idx++
			}
			before := sh.Size()
			if err := sh.AppendRun(rref, idx-uint64(n), run, 0); err != nil {
				t.Fatal(err)
			}
			if n > 1000 && sh.Size()-before <= window {
				t.Fatalf("the long run record is %d bytes, not longer than a %d-byte window", sh.Size()-before, window)
			}
		}
		size := sh.Size()
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		samples, _, err := replayFlat(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(samples, want) {
			t.Fatalf("replayed %d samples, want %d", len(samples), len(want))
		}
		data, err := os.ReadFile(filepath.Join(dir, "0", "00000001.wal"))
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(data)) != size {
			t.Fatalf("closed segment is %d bytes, Size() was %d", len(data), size)
		}
		files = append(files, data)
	})
	if len(files) == 2 && !bytes.Equal(files[0], files[1]) {
		t.Fatal("the two appenders wrote different segments for the same appends")
	}
}

// TestReplayStopsAtPreallocatedTail replays a live segment as a SIGKILL
// would leave it: never closed, so with whatever the appender preallocated
// — padded with zeros here so the write(2) run reads the same kind of file.
func TestReplayStopsAtPreallocatedTail(t *testing.T) {
	eachAppender(t, func(t *testing.T, mapped bool) {
		dir := t.TempDir()
		w := create(t, dir, 1, mapped)
		defer w.Close()
		sh := w.Shard(0)
		ref, _ := sh.AppendSeries(testKey, "W")
		for i := 0; i < 500; i++ {
			if err := sh.AppendSample(ref, uint64(i), time.Duration(i), float64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := sh.AppendGap(ref, 0, 7); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, "0", "00000001.wal"))
		if err != nil {
			t.Fatal(err)
		}
		if mapped && len(data) != window {
			t.Fatalf("live mapped segment is %d bytes on disk, want one %d-byte window", len(data), window)
		}
		if sh.Size() >= window/4 {
			t.Fatalf("Size() = %d: not the logical bytes of 502 small records", sh.Size())
		}
		if !mapped {
			data = append(data, make([]byte, window-len(data))...)
		}
		killed := t.TempDir()
		if err := os.Mkdir(filepath.Join(killed, "0"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(killed, "0", "00000001.wal"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		samples, gaps, err := replayFlat(killed)
		if err != nil {
			t.Fatal(err)
		}
		if len(samples) != 500 || len(gaps) != 1 {
			t.Fatalf("replayed %d samples %d gaps from a zero-tailed segment, want 500 and 1", len(samples), len(gaps))
		}
	})
}

// TestRotateHoldsOneMappingPerShard rotates many times and counts this
// process's mappings of the journal's files: one per shard, never the
// unlinked segments.
func TestRotateHoldsOneMappingPerShard(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/self/maps")
	}
	eachAppender(t, func(t *testing.T, mapped bool) {
		dir := t.TempDir()
		const shards = 3
		w := create(t, dir, shards, mapped)
		for r := 0; r < 5; r++ {
			for i := 0; i < shards; i++ {
				sh := w.Shard(i)
				ref, _ := sh.AppendSeries(testKey, "W")
				// Enough to move the window along before rotating.
				for j := uint64(0); sh.Size() < window+window/2; j++ {
					if err := sh.AppendSample(ref, j, time.Duration(j), 1); err != nil {
						t.Fatal(err)
					}
				}
				if err := sh.Rotate(); err != nil {
					t.Fatal(err)
				}
			}
		}
		want := 0
		if mapped {
			want = shards
		}
		if got := walMappings(t, dir); got != want {
			t.Fatalf("%d mappings of journal files after rotations, want %d", got, want)
		}
		for i := 0; i < shards; i++ {
			names, err := filepath.Glob(filepath.Join(dir, fmt.Sprint(i), "*.wal"))
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != 1 || filepath.Base(names[0]) != "00000006.wal" {
				t.Fatalf("shard %d holds %v after 5 rotations, want only 00000006.wal", i, names)
			}
			if m, wr := w.Shard(i).Segments(); m+wr != 6 || (m == 6) != mapped {
				t.Fatalf("shard %d opened %d mapped + %d write(2) segments, want 6 of one kind", i, m, wr)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if got := walMappings(t, dir); got != 0 {
			t.Fatalf("%d mappings of journal files after Close", got)
		}
	})
}

func walMappings(t *testing.T, dir string) int {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range strings.Split(string(maps), "\n") {
		if strings.Contains(line, dir) && strings.Contains(line, ".wal") {
			n++
		}
	}
	return n
}

func TestCloseLeavesFilesAtTheirLogicalSize(t *testing.T) {
	eachAppender(t, func(t *testing.T, mapped bool) {
		dir := t.TempDir()
		w := create(t, dir, 2, mapped)
		ref, _ := w.Shard(1).AppendSeries(testKey, "W")
		for i := uint64(0); i < 20000; i++ { // shard 1 ends in its second window
			if err := w.Shard(1).AppendSample(ref, i, time.Duration(i), 1); err != nil {
				t.Fatal(err)
			}
		}
		sizes := []int64{w.Shard(0).Size(), w.Shard(1).Size()}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		for i, want := range sizes {
			fi, err := os.Stat(filepath.Join(dir, fmt.Sprint(i), "00000001.wal"))
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size() != want {
				t.Fatalf("shard %d: closed file is %d bytes, Size() was %d", i, fi.Size(), want)
			}
		}
	})
}

// appendLog appends numbered samples and remembers which were acknowledged.
type appendLog struct {
	t     *testing.T
	sh    *Shard
	ref   uint64
	next  uint64
	acked []uint64
}

// sample appends the next sample; a rejected one must leave Size and
// Appended where they were.
func (l *appendLog) sample() error {
	l.t.Helper()
	size, appended := l.sh.Size(), l.sh.Appended()
	idx := l.next
	l.next++
	err := l.sh.AppendSample(l.ref, idx, time.Duration(idx), float64(idx))
	if err == nil {
		l.acked = append(l.acked, idx)
	} else if l.sh.Size() != size || l.sh.Appended() != appended {
		l.t.Fatalf("rejected append moved Size %d→%d, Appended %d→%d", size, l.sh.Size(), appended, l.sh.Appended())
	}
	return err
}

// check replays dir and requires exactly the acknowledged samples.
func (l *appendLog) check(dir string) {
	l.t.Helper()
	samples, _, err := replayFlat(dir)
	if err != nil {
		l.t.Fatal(err)
	}
	var got []uint64
	for _, s := range samples {
		got = append(got, s.Index)
	}
	if !reflect.DeepEqual(got, l.acked) {
		l.t.Fatalf("replayed samples %v, acknowledged %v", got, l.acked)
	}
}

// TestFailedWriteLeavesNoTornFrame is the write(2) appender under a
// filesystem that writes short, then fails, then recovers: the torn frame
// of the short write must not stay mid-segment, where replay would stop
// and lose everything acknowledged after it. (A copy into the mapped
// window cannot be short; TestWindowGrowthFailure is that appender's.)
func TestFailedWriteLeavesNoTornFrame(t *testing.T) {
	forceWriteAppender(t)
	dir := t.TempDir()
	w := create(t, dir, 1, false)
	sh := w.Shard(0)
	ref, _ := sh.AppendSeries(testKey, "W")
	log := &appendLog{t: t, sh: sh, ref: ref}
	for i := 0; i < 3; i++ {
		if err := log.sample(); err != nil {
			t.Fatal(err)
		}
	}

	calls := 0
	writeAt = func(f *os.File, p []byte, off int64) (int, error) {
		calls++
		switch calls {
		case 1: // half the frame reaches the file
			n, _ := f.WriteAt(p[:len(p)/2], off)
			return n, io.ErrShortWrite
		case 2:
			return 0, syscall.EIO
		}
		return f.WriteAt(p, off)
	}
	defer func() { writeAt = (*os.File).WriteAt }()
	if err := log.sample(); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("short write: err = %v", err)
	}
	if err := log.sample(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("failed write: err = %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := log.sample(); err != nil {
			t.Fatalf("append after the filesystem recovered: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	log.check(dir)
}

// TestUncuttableWriteFailsSegmentClosed: when the torn frame cannot be cut
// back off either, nothing more may be acknowledged into that segment; the
// next rotation starts clean.
func TestUncuttableWriteFailsSegmentClosed(t *testing.T) {
	forceWriteAppender(t)
	dir := t.TempDir()
	w := create(t, dir, 1, false)
	sh := w.Shard(0)
	ref, _ := sh.AppendSeries(testKey, "W")
	log := &appendLog{t: t, sh: sh, ref: ref}
	if err := log.sample(); err != nil {
		t.Fatal(err)
	}

	writeAt = func(f *os.File, p []byte, off int64) (int, error) {
		n, _ := f.WriteAt(p[:len(p)/2], off)
		return n, io.ErrShortWrite
	}
	truncate = func(*os.File, int64) error { return syscall.EIO }
	err := log.sample()
	writeAt, truncate = (*os.File).WriteAt, (*os.File).Truncate
	if !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("short write: err = %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := log.sample(); !errors.Is(err, syscall.EIO) {
			t.Fatalf("append into a segment that failed closed: err = %v", err)
		}
	}
	log.check(dir) // the torn frame is the tail: everything acknowledged precedes it

	if err := sh.Rotate(); err != nil {
		t.Fatal(err)
	}
	log.acked = nil // rotated away, as after a compaction
	log.ref, _ = sh.AppendSeries(testKey, "W")
	if err := log.sample(); err != nil {
		t.Fatalf("fresh segment after a rotation: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	log.check(dir)
}

// TestWindowGrowthFailure runs the mapped appender out of disk at the
// moment it needs its next window: the append is refused, the segment is
// as it was, and appends continue once there is space again.
func TestWindowGrowthFailure(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("no mapped appender off Linux")
	}
	dir := t.TempDir()
	w := create(t, dir, 1, true)
	sh := w.Shard(0)
	ref, _ := sh.AppendSeries(testKey, "W")
	log := &appendLog{t: t, sh: sh, ref: ref}

	TestHookFallocate = func(int, uint32, int64, int64) error { return syscall.ENOSPC }
	defer func() { TestHookFallocate = nil }()
	var err error
	for err == nil {
		err = log.sample()
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("append at the window's end on a full disk: err = %v", err)
	}
	if free := window - sh.Size(); free < 0 || free > 64 {
		t.Fatalf("first refusal with %d bytes of window left", free)
	}
	if err := log.sample(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("second append on a full disk: err = %v", err)
	}

	TestHookFallocate = nil
	for sh.Size() < window+window/2 {
		if err := log.sample(); err != nil {
			t.Fatalf("append after space came back: %v", err)
		}
	}

	// A rotation on a full disk fails too — ENOSPC is no reason to fall
	// back to write(2) — and leaves a shard without a segment: it refuses
	// records under the old refs for good, and opens the successor at the
	// next rotation, as here, or the next declaration
	// (TestFailedRotateOpensSuccessorAtNextDeclaration).
	TestHookFallocate = func(int, uint32, int64, int64) error { return syscall.ENOSPC }
	if err := sh.Rotate(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Rotate on a full disk: err = %v", err)
	}
	log.acked = nil // rotated away, as after a compaction
	if err := log.sample(); err == nil {
		t.Fatal("append acknowledged by a shard whose rotation failed")
	}
	TestHookFallocate = nil
	if err := sh.Rotate(); err != nil {
		t.Fatal(err)
	}
	log.ref, _ = sh.AppendSeries(testKey, "W")
	if err := log.sample(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	log.check(dir)
}

// TestFailedRotateOpensSuccessorAtNextDeclaration: a rotation lets the old
// segment go before it opens the next, and a full disk can come between.
// The shard is then without a segment, not closed: while the disk stays
// full a declaration fails with the disk's error, and the first one after
// that opens the successor and is its first record. Nothing is ever
// appended under a ref from the segment that is gone.
func TestFailedRotateOpensSuccessorAtNextDeclaration(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("no mapped appender off Linux")
	}
	dir := t.TempDir()
	w := create(t, dir, 1, true)
	sh := w.Shard(0)
	ref, _ := sh.AppendSeries(testKey, "W")
	log := &appendLog{t: t, sh: sh, ref: ref}
	for i := 0; i < 3; i++ {
		if err := log.sample(); err != nil {
			t.Fatal(err)
		}
	}

	TestHookFallocate = func(int, uint32, int64, int64) error { return syscall.ENOSPC }
	defer func() { TestHookFallocate = nil }()
	if err := sh.Rotate(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Rotate on a full disk: err = %v", err)
	}
	log.acked = nil // rotated away, as after a compaction
	if _, err := sh.AppendSeries(testKey, "W"); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("declaration while the disk is full: err = %v, want the disk's own", err)
	}
	if err := log.sample(); err == nil {
		t.Fatal("a sample under a ref from the segment that is gone was acknowledged")
	}

	TestHookFallocate = nil
	if err := log.sample(); err == nil {
		t.Fatal("a sample under a ref from the segment that is gone was acknowledged once space was back")
	}
	var err error
	if log.ref, err = sh.AppendSeries(testKey, "W"); err != nil || log.ref != 1 {
		t.Fatalf("declaration after space came back: ref %d, err %v, want the new segment's first ref", log.ref, err)
	}
	if !sh.Mapped() || sh.Rotations() != 1 {
		t.Fatalf("the successor: mapped %v after %d rotations", sh.Mapped(), sh.Rotations())
	}
	for i := 0; i < 3; i++ {
		if err := log.sample(); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.Rotate(); err != nil { // and rotations go on from there
		t.Fatal(err)
	}
	log.acked = nil
	log.ref, _ = sh.AppendSeries(testKey, "W")
	if err := log.sample(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	log.check(dir)
	if segs, _ := segmentSeqs(filepath.Join(dir, "0")); len(segs) != 1 {
		t.Fatalf("segments left on disk: %v, want the open one alone", segs)
	}
}

// TestDecodeRecordTruncated: a payload that passes its checksum but stops
// short of its record type's last field is io.ErrUnexpectedEOF, and
// nothing of it is replayed.
func TestDecodeRecordTruncated(t *testing.T) {
	series := storage.AppendString(storage.AppendString(storage.AppendString(storage.AppendString(
		[]byte{recSeries, 2}, testKey.Node), testKey.Backend), testKey.Domain), "W")
	sample := append([]byte{recSample, 1, 3, 0x80, 0x01}, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f)
	gap := []byte{recGap, 1, 0, 0x80, 0x01}
	// Run records: ref 1, first index 3, count, first t 64, then a step and a
	// value per sample. Cut anywhere — inside the header, between samples,
	// inside the last value — none of the run's samples replays.
	one := append([]byte{recRun, 1, 3, 1, 0x80, 0x01, 0}, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f)
	three := append(bytes.Clone(one), append([]byte{0x90, 0x4e, 0, 0, 0, 0, 0, 0, 0, 0x40}, 0, 0, 0, 0, 0, 0, 0, 0x08, 0x40)...)
	three[3] = 3
	for _, payload := range [][]byte{series, sample, gap, one, three} {
		whole := 2 // the series declared up front, and the record
		if payload[0] == recRun {
			whole = 1 + int(payload[3])
		}
		for n := 0; n <= len(payload); n++ {
			g, j := &group{key: testKey}, newJournal()
			j.refs = map[uint64]decl{1: {g: g, unit: "W"}}
			err := j.record(payload[:n])
			samples, gaps, refs := g.samples.entries, g.gaps.entries, j.refs
			if n == len(payload) {
				if err != nil || len(samples)+len(gaps)+len(refs) != whole {
					t.Errorf("whole record type %d: %v, %d samples, %d gaps, %d series", payload[0], err, len(samples), len(gaps), len(refs))
				}
			} else if !errors.Is(err, io.ErrUnexpectedEOF) || len(samples)+len(gaps)+len(refs) != 1 {
				t.Errorf("record type %d cut at %d of %d: %v, %d samples, %d gaps, %d series", payload[0], n, len(payload), err, len(samples), len(gaps), len(refs))
			}
		}
	}
}

// FuzzReplaySegment feeds one segment's bytes to the decoder. It must not
// panic, must not read a frame past the bytes it was given, and must not
// return a record from a frame that failed its checksum — checked against
// a second, independent walk of the frames. What it returns, grouped by
// series, must be what the flat decode of the oracle returns in the order
// of the stable (key, index) sort.
func FuzzReplaySegment(f *testing.F) {
	dir := f.TempDir()
	w, err := Create(dir, 3)
	if err != nil {
		f.Fatal(err)
	}
	sh := w.Shard(0)
	ref, _ := sh.AppendSeries(testKey, "W")
	for i := uint64(0); i < 20; i++ {
		if err := sh.AppendSample(ref, i, time.Duration(i)*time.Second, float64(i)); err != nil {
			f.Fatal(err)
		}
	}
	if err := sh.AppendGap(ref, 0, time.Minute); err != nil {
		f.Fatal(err)
	}
	// Run records: of one sample, then one whose leading indexes (15–20)
	// records before it already hold — what replay hands the store when a
	// block or an older segment covers the head of a run.
	run := func(sh *Shard, idx uint64, n int) {
		samples := make([]trace.Sample, n)
		for i := range samples {
			samples[i] = trace.Sample{T: time.Duration(idx + uint64(i)), V: float64(i)}
		}
		if err := sh.AppendRun(ref, idx, samples, 0); err != nil {
			f.Fatal(err)
		}
	}
	run(sh, 20, 1)
	run(sh, 15, 12)
	// And two segments as a window-sized journal leaves them: a run lying
	// across the first window's end, and a run longer than a window. They
	// are a quarter of a megabyte each, and the engine would spend its
	// default minute minimizing the first interesting input it derives
	// from one — CI runs this target with -fuzzminimizetime 1s.
	straddler, long := w.Shard(1), w.Shard(2)
	for _, sh := range []*Shard{straddler, long} {
		if _, err := sh.AppendSeries(testKey, "W"); err != nil { // ref 1 there too
			f.Fatal(err)
		}
	}
	for i := uint64(0); straddler.Size() < window-100; i += 1000 {
		run(straddler, i, 1000)
	}
	run(straddler, 1<<20, 40)
	run(long, 0, window/9+1)
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, "0", "00000001.wal"))
	if err != nil {
		f.Fatal(err)
	}
	for _, shard := range []string{"1", "2"} {
		big, err := os.ReadFile(filepath.Join(dir, shard, "00000001.wal"))
		if err != nil || len(big) <= window {
			f.Fatalf("shard %s's segment is %d bytes (err %v), want more than a window", shard, len(big), err)
		}
		f.Add(big)
	}
	f.Add(seg)
	f.Add(append(bytes.Clone(seg), make([]byte, 4096)...)) // preallocated tail
	f.Add(seg[:len(seg)-5])                                // torn last frame
	flipped := bytes.Clone(seg)
	flipped[8+4] ^= 0xff // first frame's CRC
	f.Add(flipped)
	f.Add([]byte("ENVW\x01\x00\x00\x00\xff\xff\xff\xff\x00\x00\x00\x00")) // a frame 2^32-1 long

	f.Fuzz(func(t *testing.T, data []byte) {
		j := newJournal()
		err := j.replayBytes("fuzz", data)
		samples, gaps := flatten(j.streams())
		if len(data) < 8 {
			if err == nil {
				t.Fatal("a segment shorter than its header replayed without error")
			}
			return
		}
		// Reference walk: count sample and gap frames up to the first one
		// that is empty, overlong or fails its CRC.
		valid := 0
		for p := data[8:]; len(p) >= 8; {
			plen := uint64(p[0]) | uint64(p[1])<<8 | uint64(p[2])<<16 | uint64(p[3])<<24
			sum := uint32(p[4]) | uint32(p[5])<<8 | uint32(p[6])<<16 | uint32(p[7])<<24
			if plen == 0 || plen > uint64(len(p)-8) {
				break
			}
			payload := p[8 : 8+plen]
			if crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)) != sum {
				break
			}
			if payload[0] == recSample || payload[0] == recGap {
				valid++
			}
			if payload[0] == recRun {
				// The count a run declares, third uvarint in: replay may hand
				// back that many samples for the frame, or none of them.
				q, count := payload[1:], uint64(0)
				for i, n := 0, 0; i < 3 && len(q) > 0; i, q = i+1, q[max(n, 1):] {
					count, n = binary.Uvarint(q)
				}
				valid += int(min(count, plen))
			}
			p = p[8+plen:]
		}
		got := len(samples) + len(gaps)
		if got > valid || (err == nil && got != valid) {
			t.Fatalf("replay returned %d records (err %v); %d sample and gap frames pass their checksum", got, err, valid)
		}
		// And the grouping is the order the flat decode and the stable
		// (key, index) sort give the same bytes, error or not.
		wantS, wantG, wantErr := oracleSegment(data)
		oracleSort(wantS, wantG)
		oracleUnits(wantS, wantG)
		if (err == nil) != (wantErr == nil) || !sameSamples(samples, wantS) || !slices.Equal(gaps, wantG) {
			t.Fatalf("grouped replay (err %v) gave %d samples %d gaps; the oracle (err %v) %d and %d, or in another order",
				err, len(samples), len(gaps), wantErr, len(wantS), len(wantG))
		}
	})
}
