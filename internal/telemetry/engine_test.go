package telemetry

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"envmon/internal/telemetry/wal"
)

// smallOpts forces frequent compactions: tiny rings, tiny WAL budget.
func smallOpts(shards int) Options {
	return Options{Shards: shards, RawCapacity: 32, RollupCapacity: 4, GapCapacity: 8,
		WALSegmentBytes: 1 << 20}
}

// ingestWorkload drives a deterministic mixed workload: three series on
// two nodes, 50 ms cadence, occasional gaps.
func ingestWorkload(t *testing.T, st *Store, from, n int) {
	t.Helper()
	keys := []SeriesKey{
		{Node: "c000-001", Backend: "MSR", Domain: "Total Power"},
		{Node: "c000-001", Backend: "MSR", Domain: "DDR Power"},
		{Node: "c000-002", Backend: "NVML", Domain: "Total Power"},
	}
	for i := from; i < from+n; i++ {
		ts := time.Duration(i) * 50 * time.Millisecond
		for ki, key := range keys {
			if (i+ki)%17 == 0 {
				if err := st.IngestGap(key, "W", ts); err != nil {
					t.Fatalf("gap %d: %v", i, err)
				}
				continue
			}
			v := 200 + float64(ki)*25 + float64(i%13)*0.5
			if err := st.Ingest(key, "W", ts, v); err != nil {
				t.Fatalf("sample %d: %v", i, err)
			}
		}
	}
}

// allQueries snapshots every resolution plus TopK — the full read surface.
func allQueries(st *Store) (frames map[Resolution][]Frame, top []NodePower, total float64) {
	frames = map[Resolution][]Frame{}
	for _, res := range []Resolution{Raw, Res1s, Res10s, Res60s} {
		frames[res] = st.Query(Query{Resolution: res, Aggregate: AggMean})
	}
	top, total = st.TopK(10, "", 0, 0, Res1s)
	return frames, top, total
}

func TestPersistentMatchesMemoryAndSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	ps, err := Open(dir, smallOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	// A memory-only reference with rings big enough to never evict: the
	// persistent store must serve the identical full history even though
	// its tiny rings evicted most of it to blocks.
	ref := New(Options{Shards: 1, RawCapacity: 1 << 16, RollupCapacity: 1 << 12, GapCapacity: 1 << 12})
	ingestWorkload(t, ps, 0, 3000)
	ingestWorkload(t, ref, 0, 3000)

	if stats := ps.StorageStats(); !stats.Persistent || stats.Blocks == 0 {
		t.Fatalf("no compaction happened under pressure: %+v", stats)
	}

	pf, ptop, ptotal := allQueries(ps)
	rf, rtop, rtotal := allQueries(ref)
	if !reflect.DeepEqual(pf, rf) {
		t.Fatal("persistent store diverges from memory reference")
	}
	if !reflect.DeepEqual(ptop, rtop) || ptotal != rtotal {
		t.Fatalf("TopK diverges: %+v %v vs %+v %v", ptop, ptotal, rtop, rtotal)
	}

	// Reopen without a flush — recovery must replay the journal — and at a
	// different shard count, which must be unobservable.
	ps.Close()
	ps2, err := Open(dir, smallOpts(7))
	if err != nil {
		t.Fatal(err)
	}
	defer ps2.Close()
	if ps2.recovered.Lost != 0 {
		t.Fatalf("recovery lost %d records", ps2.recovered.Lost)
	}
	qf, qtop, qtotal := allQueries(ps2)
	if !reflect.DeepEqual(qf, rf) {
		t.Fatal("reopened store diverges from pre-restart results")
	}
	if !reflect.DeepEqual(qtop, rtop) || qtotal != rtotal {
		t.Fatal("reopened TopK diverges")
	}

	// Ingest continues across the seam and both stores still agree.
	ingestWorkload(t, ps2, 3000, 500)
	ingestWorkload(t, ref, 3000, 500)
	qf2, _, _ := allQueries(ps2)
	rf2, _, _ := allQueries(ref)
	if !reflect.DeepEqual(qf2, rf2) {
		t.Fatal("post-restart ingest diverges from memory reference")
	}
}

func TestGapsSurviveFullRoundTrip(t *testing.T) {
	dir := t.TempDir()
	key := SeriesKey{Node: "c000-009", Backend: "MSR", Domain: "Total Power"}
	st, err := Open(dir, smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	// Only gaps — a device dead from the start must stay visible as such
	// through WAL replay and block compaction.
	for i := 0; i < 40; i++ {
		if err := st.IngestGap(key, "W", time.Duration(i)*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil { // push through to blocks
		t.Fatal(err)
	}
	for i := 40; i < 45; i++ { // and a few that only reach the WAL
		if err := st.IngestGap(key, "W", time.Duration(i)*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	st2, err := Open(dir, smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	frames := st2.Query(Query{Node: key.Node})
	if len(frames) != 1 {
		t.Fatalf("got %d frames", len(frames))
	}
	f := frames[0]
	if len(f.Points) != 0 {
		t.Fatalf("gap-only series reported %d points", len(f.Points))
	}
	if len(f.Gaps) != 45 {
		t.Fatalf("round trip kept %d of 45 gap markers", len(f.Gaps))
	}
	for i, g := range f.Gaps {
		if g != time.Duration(i)*time.Second {
			t.Fatalf("gap %d = %v", i, g)
		}
	}
}

func TestFlushMakesStateBlockOnly(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	ingestWorkload(t, st, 0, 400)
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	want, wtop, wtotal := allQueries(st)
	st.Close()

	// Destroy the journal: after a Flush the blocks alone must carry
	// everything.
	if err := os.RemoveAll(filepath.Join(dir, "wal")); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got, gtop, gtotal := allQueries(st2)
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gtop, wtop) || gtotal != wtotal {
		t.Fatal("block-only recovery diverges from flushed state")
	}
	if got := st2.StorageStats().Recovery.Samples; got != 0 {
		t.Fatalf("replayed %d samples after a full flush", got)
	}
}

// TestWindowedQueryReadsNoExcludedChunk pins "a windowed query reads only
// the chunks and ring entries its window can hold". Three generations are
// sealed, a head of 5 s is not, and then every block file is truncated
// under the open store, so any chunk read fails and counts in ReadErrors.
// A window that starts past every seal, at any resolution and in TopK,
// must count none, whether the rings still show the seam or (after a
// reopen) hold only the head; a whole-range query must count them, which
// shows the truncation is visible.
func TestWindowedQueryReadsNoExcludedChunk(t *testing.T) {
	for _, reopen := range []bool{false, true} {
		dir := t.TempDir()
		opts := Options{Shards: 2, RawCapacity: 256, RollupCapacity: 64, GapCapacity: 64, WALSegmentBytes: 1 << 20}
		st, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		for gen := 0; gen < 3; gen++ {
			ingestWorkload(t, st, gen*100, 100)
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if reopen {
			st.Close()
			if st, err = Open(dir, opts); err != nil {
				t.Fatal(err)
			}
		}
		ingestWorkload(t, st, 300, 100)
		head := 300 * 50 * time.Millisecond
		if n := st.StorageStats().Blocks; n < 3 {
			t.Fatalf("reopen=%v: %d blocks sealed, want 3 generations", reopen, n)
		}
		entries, err := os.ReadDir(filepath.Join(dir, "blocks"))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if err := os.Truncate(filepath.Join(dir, "blocks", e.Name()), 0); err != nil {
				t.Fatal(err)
			}
		}
		for _, res := range []Resolution{Raw, Res1s, Res10s, Res60s} {
			// From the head's first instant and from past it, by a bucket
			// boundary's worth at each level.
			for _, from := range []time.Duration{head, head + time.Second} {
				frames := st.Query(Query{From: from, Resolution: res, Aggregate: AggLast})
				st.TopK(0, "", from, 0, res)
				if got := st.StorageStats().ReadErrors; got != 0 {
					t.Fatalf("reopen=%v: a %s window from %v read %d truncated chunks", reopen, res, from, got)
				}
				if len(frames) != 3 || frames[0].Points == nil || !frames[0].ReducedOK {
					t.Fatalf("reopen=%v: a %s window from %v answered %+v", reopen, res, from, frames)
				}
			}
		}
		st.Query(Query{})
		if st.StorageStats().ReadErrors == 0 {
			t.Fatalf("reopen=%v: a whole-range query read the truncated blocks without an error", reopen)
		}
		st.Close()
	}
}

func TestSeriesInfoReportsPersistence(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, smallOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ingestWorkload(t, st, 0, 200)
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	ingestWorkload(t, st, 200, 10)
	for _, info := range st.Series() {
		if info.Persisted == 0 || info.Persisted >= info.Samples {
			t.Fatalf("series %v: persisted %d of %d samples", info.Key, info.Persisted, info.Samples)
		}
		if info.Oldest > 50*time.Millisecond {
			// The workload's first sample per series lands at t=0 or t=50ms
			// (one series opens with a gap marker), and blocks retain
			// everything, so Oldest must be that first sample even though
			// the tiny raw ring evicted it long ago.
			t.Fatalf("series %v: oldest %v, want <= 50ms", info.Key, info.Oldest)
		}
	}
}

// openUnder lists this process's open descriptors that point below dir.
func openUnder(t *testing.T, dir string) []string {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	var open []string
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, dir+"/") {
			open = append(open, target)
		}
	}
	return open
}

// TestCloseReleasesEveryDescriptor: after Open, ingest, Flush and Close no
// descriptor is left open under the data directory — journal segments and
// block files alike — and a query reaching sealed data after Close counts a
// read error rather than answering short in silence.
func TestCloseReleasesEveryDescriptor(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("needs /proc/self/fd")
	}
	dir, err := filepath.EvalSymlinks(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{Shards: 2, RawCapacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	key := SeriesKey{Node: "c000-001", Backend: "MSR", Domain: "Total Power"}
	ingest := func(from, to int) {
		for i := from; i < to; i++ {
			if err := st.Ingest(key, "W", time.Duration(i)*time.Second, float64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest(0, 100)
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	ingest(100, 110) // journaled, not sealed: what memory alone answers
	if open := openUnder(t, dir); !slices.Contains(open, filepath.Join(dir, "blocks", "b-00000001.blk")) {
		t.Fatalf("open before Close: %v, want the first block among them", open)
	}
	st.Close()
	if open := openUnder(t, dir); len(open) > 0 {
		t.Fatalf("descriptors left open under the data dir after Close: %v", open)
	}
	frames := st.Query(Query{})
	if got := st.StorageStats().ReadErrors; got == 0 || len(frames) != 1 || len(frames[0].Points) != 10 {
		t.Fatalf("a whole-range query after Close: %d read errors, %d frames, want 1 frame of the 10 unsealed points and the sealed read counted", got, len(frames))
	}
}

func TestPersistentIngestSteadyStateZeroAllocs(t *testing.T) {
	dir := t.TempDir()
	// Capacities large enough that the measured run never compacts.
	st, err := Open(dir, Options{Shards: 2, RawCapacity: 1 << 16,
		RollupCapacity: 1 << 12, GapCapacity: 1 << 12, WALSegmentBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	key := SeriesKey{Node: "c000-001", Backend: "MSR", Domain: "Total Power"}
	if err := st.Ingest(key, "W", 0, 1); err != nil {
		t.Fatal(err)
	}
	i := time.Duration(1)
	allocs := testing.AllocsPerRun(500, func() {
		if err := st.Ingest(key, "W", i*time.Millisecond, 3.5); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("journaled steady-state ingest allocates %.1f times per sample, want 0", allocs)
	}
}

// walFileBytes sums the lengths of the journal's segment files on disk.
func walFileBytes(t *testing.T, dir string) int64 {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal", "*", "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, name := range names {
		fi, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		n += fi.Size()
	}
	return n
}

// TestWALBytesAreLogical: the journal's reported size is what was
// journaled, not what the mapped appender preallocated ahead of it, and
// Close leaves the files at exactly that size.
func TestWALBytesAreLogical(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ingestWorkload(t, st, 0, 100)
	stats := st.StorageStats()
	if stats.WALBytes <= 16 || stats.WALBytes > 16<<10 {
		t.Fatalf("WALBytes = %d after 300 small records", stats.WALBytes)
	}
	if onDisk := walFileBytes(t, dir); stats.WALMapped && onDisk < 2*(256<<10) {
		t.Fatalf("mapped journal holds %d bytes on disk, want a preallocated window per shard", onDisk)
	}
	st.Close()
	if onDisk := walFileBytes(t, dir); onDisk != stats.WALBytes {
		t.Fatalf("closed journal is %d bytes on disk, WALBytes was %d", onDisk, stats.WALBytes)
	}
}

// TestFullDiskRejectsIngestAndLosesNothing runs the journal out of disk
// when it needs its next window: the ingest is rejected with the head
// untouched, the store takes samples again once there is space, and a
// reopen from the journal alone recovers exactly what was acknowledged.
func TestFullDiskRejectsIngestAndLosesNothing(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 1, RawCapacity: 1 << 15} // one segment, no compaction: the journal carries everything
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if !st.StorageStats().WALMapped {
		t.Skip("the journal is not on the mapped appender here")
	}
	key := SeriesKey{Node: "c000-001", Backend: "MSR", Domain: "Total Power"}
	ingest := func(i int) error { return st.Ingest(key, "W", time.Duration(i)*time.Millisecond, float64(i)) }

	wal.TestHookFallocate = func(int, uint32, int64, int64) error { return syscall.ENOSPC }
	defer func() { wal.TestHookFallocate = nil }()
	acked := 0
	for err = ingest(acked); err == nil; err = ingest(acked) {
		if acked++; acked == opts.RawCapacity {
			t.Fatal("the journal never needed a second window")
		}
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("ingest on a full disk: err = %v", err)
	}
	walBytes := st.StorageStats().WALBytes
	if err := ingest(acked); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("second ingest on a full disk: err = %v", err)
	}
	frames := st.Query(Query{})
	if got := st.StorageStats().WALBytes; got != walBytes || st.Samples() != uint64(acked) ||
		len(frames) != 1 || len(frames[0].Points) != acked {
		t.Fatalf("rejected ingests moved the store: WALBytes %d→%d, %d samples, %d acknowledged", walBytes, got, st.Samples(), acked)
	}

	wal.TestHookFallocate = nil
	if err := ingest(acked); err != nil {
		t.Fatalf("ingest after space came back: %v", err)
	}
	acked++
	st.Close() // no Flush

	re, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rec := re.StorageStats().Recovery; rec.Samples != uint64(acked) || rec.Lost != 0 {
		t.Fatalf("recovered %d samples (%d lost), acknowledged %d", rec.Samples, rec.Lost, acked)
	}
	frames = re.Query(Query{})
	if len(frames) != 1 || len(frames[0].Points) != acked {
		t.Fatalf("reopened store serves %d frames, want 1 with %d points", len(frames), acked)
	}
	for i, p := range frames[0].Points {
		if p.T != time.Duration(i)*time.Millisecond || p.Last != float64(i) {
			t.Fatalf("point %d = (%v, %v): a rejected sample replayed or an acknowledged one moved", i, p.T, p.Last)
		}
	}
}

// TestRotationOnAFullDiskReopensTheJournal: a seal rotates the shard's
// journal — lets the old segment go, opens the next — and the disk can
// fill between the two. The seal's ingest is rejected, as any ingest on a
// full disk is; the shard used to keep the segment it had let go and
// answer "file already closed" to every ingest from then on, space or no
// space. Now the next ingest opens the successor first, and every series
// declares itself in it as after a rotation that went through.
func TestRotationOnAFullDiskReopensTheJournal(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 1, RawCapacity: 16}
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if !st.StorageStats().WALMapped {
		t.Skip("the journal is not on the mapped appender here")
	}
	keys := []SeriesKey{
		{Node: "c000-001", Backend: "MSR", Domain: "Total Power"},
		{Node: "c000-002", Backend: "MSR", Domain: "Total Power"},
	}
	acked := make([]int, len(keys))
	ingest := func(k int) error {
		err := st.Ingest(keys[k], "W", time.Duration(acked[k])*time.Millisecond, float64(acked[k]))
		if err == nil {
			acked[k]++
		}
		return err
	}
	for i := 0; i < opts.RawCapacity; i++ {
		for k := range keys {
			if err := ingest(k); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The 17th sample presses the ring: seal, then rotate — on a full disk.
	wal.TestHookFallocate = func(int, uint32, int64, int64) error { return syscall.ENOSPC }
	defer func() { wal.TestHookFallocate = nil }()
	if err := ingest(0); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("the ingest whose seal rotates on a full disk: err = %v", err)
	}
	if err := ingest(1); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("an ingest while the disk is still full: err = %v, want the disk's own error", err)
	}
	if got := st.Samples(); got != uint64(2*opts.RawCapacity) {
		t.Fatalf("%d samples counted after two rejected ingests, want %d", got, 2*opts.RawCapacity)
	}

	wal.TestHookFallocate = nil
	for i := 0; i < 5; i++ {
		for k := range keys {
			if err := ingest(k); err != nil {
				t.Fatalf("ingest of series %d after space came back: %v", k, err)
			}
		}
	}
	if err := st.IngestGap(keys[1], "W", time.Second); err != nil {
		t.Fatalf("gap after space came back: %v", err)
	}
	st.Close() // no Flush: what came after the failed rotation is in the journal alone

	re, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rec := re.StorageStats().Recovery; rec.Samples != 10 || rec.Gaps != 1 || rec.Lost != 0 {
		t.Fatalf("recovered %d samples and %d gaps from the journal (%d lost), want the 10 and the 1 acknowledged after the rotation", rec.Samples, rec.Gaps, rec.Lost)
	}
	frames := re.Query(Query{})
	if len(frames) != len(keys) {
		t.Fatalf("reopened store serves %d frames, want %d", len(frames), len(keys))
	}
	for k, f := range frames {
		if f.Key != keys[k] || len(f.Points) != acked[k] {
			t.Fatalf("series %v serves %d points, acknowledged %d", f.Key, len(f.Points), acked[k])
		}
		for i, p := range f.Points {
			if p.T != time.Duration(i)*time.Millisecond || p.Last != float64(i) {
				t.Fatalf("series %v point %d = (%v, %v): a rejected sample replayed or an acknowledged one moved", f.Key, i, p.T, p.Last)
			}
		}
	}
	if len(frames[1].Gaps) != 1 {
		t.Fatalf("the gap marker journaled after the rotation: %v", frames[1].Gaps)
	}
}
