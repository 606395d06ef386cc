package telemetry

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"syscall"
	"testing"
	"time"

	"envmon/internal/telemetry/wal"
	"envmon/internal/trace"
)

// The tests in this file pin "same stream, same store" for the run path
// (DESIGN §9): what SetCursor.Flush leaves in a store — rings, journal,
// blocks, answers, what a crash keeps — is what Ingest leaves there sample by
// sample, and the absorb path's subtraction is the division it replaced.

// everyAnswer is the full read surface, for comparing two stores fed the
// same stream: every resolution × aggregate over the whole history and over
// a window inside it, TopK, the series listing and the totals.
func everyAnswer(st *Store, from, to time.Duration) []any {
	var out []any
	for _, res := range []Resolution{Raw, Res1s, Res10s, Res60s} {
		for _, w := range [][2]time.Duration{{0, 0}, {from, to}} {
			for _, agg := range []Aggregate{AggNone, AggMean, AggMin, AggMax, AggLast} {
				out = append(out, st.Query(Query{From: w[0], To: w[1], Resolution: res, Aggregate: agg}))
			}
			top, total := st.TopK(0, "", w[0], w[1], res)
			out = append(out, top, total)
		}
	}
	return append(out, st.Series(), st.Samples(), st.Gaps(), st.MaxTime())
}

// TestRunIngestMatchesSampleIngest is the differential: one seeded stream —
// sub-second steps, repeated instants, multi-second jumps, gap markers, now
// and then a sample that runs backwards in the middle of a run — goes into
// one store through Ingest and into another through SetCursor.Flush in runs
// of 1–40, over rings small enough that runs lie across seals (the WAL
// budget is out of reach: only ring pressure seals, which is what puts a
// seal at a sample index rather than a byte count). The block files and
// every answer must be equal, and equal again after both are reopened at
// another shard count without a flush — the second store from run records.
// Once with every ring at 4–16 entries, where the raw ring presses first;
// once with a raw ring that never does and steps of a quarter second, so the
// rollup rings press and buckets open exactly on their edges.
func TestRunIngestMatchesSampleIngest(t *testing.T) {
	seed := modelSeed(t)
	t.Run("raw rings press", func(t *testing.T) {
		rng := rand.New(rand.NewSource(seed))
		opts := Options{RawCapacity: 4 + rng.Intn(13), RollupCapacity: 4 + rng.Intn(13), GapCapacity: 4 + rng.Intn(13)}
		runAgainstSamples(t, seed, rng, opts, 400, time.Millisecond)
	})
	t.Run("rollup rings press", func(t *testing.T) {
		rng := rand.New(rand.NewSource(seed))
		opts := Options{RawCapacity: 1 << 10, RollupCapacity: 4 + rng.Intn(5), GapCapacity: 1 << 10}
		runAgainstSamples(t, seed, rng, opts, 4, 250*time.Millisecond)
	})
}

// runAgainstSamples is the differential for one set of ring sizes; a sample
// follows the one before by 0 to steps-1 times grain, the odd jump aside.
func runAgainstSamples(t *testing.T, seed int64, rng *rand.Rand, opts Options, steps int, grain time.Duration) {
	opts.Shards, opts.WALSegmentBytes = 3, 1<<30
	dirs := [2]string{t.TempDir(), t.TempDir()} // fed by Ingest, by Flush
	var stores [2]*Store
	for i, dir := range dirs {
		st, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = st
		defer func() { stores[i].Close() }()
	}
	bySample, byRun := stores[0], stores[1]

	const node, nseries, rounds = "c000-001", 4, 20
	set := trace.NewSet()
	keys := make([]SeriesKey, nseries)
	for i := range keys {
		keys[i] = SeriesKey{Node: node, Backend: []string{"MSR", "NVML"}[i%2], Domain: "Rail " + strconv.Itoa(i)}
		set.Add(trace.NewSeries(keys[i].Backend+"/"+keys[i].Domain, "W"))
	}
	cur := NewSetCursor(byRun, node, set)
	cur.Offset = 3 * time.Second
	now := make([]time.Duration, nseries)
	var rejected, straddled int
	for round := 0; round < rounds; round++ {
		for i, ts := range set.Series {
			for n := rng.Intn(41); n > 0; n-- { // 0–40: a series may sit a round out
				now[i] += time.Duration(rng.Intn(steps)) * grain
				if rng.Intn(25) == 0 {
					now[i] += time.Duration(rng.Intn(90)) * time.Second
				}
				at := now[i]
				if rng.Intn(60) == 0 {
					at -= time.Duration(1+rng.Intn(5)) * time.Second // out of order: both paths must refuse it
				}
				ts.Samples = append(ts.Samples, trace.Sample{T: at, V: 100 + 50*rng.Float64()})
				if rng.Intn(12) == 0 {
					ts.MustAppendGap(now[i])
				}
			}
		}
		// The same samples in the same order, one by one. A refused sample is
		// skipped: the cursor below takes it off its set the same way.
		for i, ts := range set.Series {
			for _, sm := range ts.Samples {
				if err := bySample.Ingest(keys[i], "W", sm.T+cur.Offset, sm.V); err != nil && !errors.Is(err, ErrOutOfOrder) {
					t.Fatal(err)
				}
			}
			for _, g := range ts.Gaps {
				if err := bySample.IngestGap(keys[i], "W", g+cur.Offset); err != nil {
					t.Fatal(err)
				}
			}
		}
		sealed := byRun.StorageStats().Compactions
		for {
			err := cur.Flush()
			if err == nil {
				break
			}
			if !errors.Is(err, ErrOutOfOrder) {
				t.Fatal(err)
			}
			// The refused sample leads what is left of its series: drop it
			// and flush again, which resumes right behind it.
			rejected++
			for _, ts := range set.Series {
				if len(ts.Samples) > 0 {
					ts.Samples = ts.Samples[:copy(ts.Samples, ts.Samples[1:])]
					break
				}
			}
		}
		if cur.Pending() != 0 {
			t.Fatalf("CHAOS_SEED=%d round %d: %d samples left on the set after a clean flush", seed, round, cur.Pending())
		}
		if byRun.StorageStats().Compactions > sealed {
			straddled++
		}
	}
	if rejected == 0 || straddled < rounds/2 || bySample.ingestErrs.Load() != byRun.ingestErrs.Load() {
		t.Fatalf("CHAOS_SEED=%d: %d samples refused (%d and %d rejections counted), %d of %d flushes sealed: the stream does not exercise what it is for",
			seed, rejected, bySample.ingestErrs.Load(), byRun.ingestErrs.Load(), straddled, rounds)
	}
	journaled := func(st *Store) int64 { return st.sumWAL(func(w *wal.Shard) int64 { return w.Appended() }) }
	if a, b := bySample.StorageStats().Compactions, byRun.StorageStats().Compactions; a != b || journaled(bySample) <= journaled(byRun) {
		t.Fatalf("CHAOS_SEED=%d: %d vs %d compactions, %d vs %d bytes journaled: want the same seals and a smaller journal from run records",
			seed, a, b, journaled(bySample), journaled(byRun))
	}

	from := time.Duration(rng.Int63n(int64(bySample.MaxTime())))
	to := from + time.Duration(rng.Int63n(int64(bySample.MaxTime())))
	compare := func(when string) {
		t.Helper()
		if a, b := blocksDigest(t, dirs[0]), blocksDigest(t, dirs[1]); a != b {
			t.Fatalf("CHAOS_SEED=%d %s: blocks/ digests differ: %s by sample, %s by run", seed, when, a, b)
		}
		if a, b := everyAnswer(stores[0], from, to), everyAnswer(stores[1], from, to); !reflect.DeepEqual(a, b) {
			t.Fatalf("CHAOS_SEED=%d %s: the stores answer differently", seed, when)
		}
	}
	compare("live")
	opts.Shards = 5
	for i, dir := range dirs {
		stores[i].Close() // no Flush: the tail comes back from the journal
		st, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = st
		if rec := st.StorageStats().Recovery; rec.Samples == 0 || rec.Lost != 0 {
			t.Fatalf("CHAOS_SEED=%d store %d: replayed %d samples, lost %d", seed, i, rec.Samples, rec.Lost)
		}
	}
	compare("reopened")
}

// TestBucketTestAgainstModulo holds the absorb path's bucket test
// (t-Start < period) to the formula it replaced (Start == t - t%period): a
// seeded walk whose steps land on, one nanosecond before and one after every
// level's bucket edges, with repeated instants and jumps over whole buckets,
// must produce at every level the buckets the modulo says — across a reopen,
// where the first sample meets a tail bucket restored from a block index.
func TestBucketTestAgainstModulo(t *testing.T) {
	rng := rand.New(rand.NewSource(modelSeed(t)))
	opts := Options{Shards: 1, RawCapacity: 512, RollupCapacity: 64}
	dir := t.TempDir()
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { st.Close() }()
	k := key("c000-001")
	var want [numRollupLevels][]FramePoint
	var sums [numRollupLevels]float64
	var now time.Duration
	for i := 0; i < 3000; i++ {
		period := rollupPeriods[rng.Intn(numRollupLevels)]
		edge := now - now%period + period // the next edge of a level picked at random
		switch rng.Intn(8) {
		case 0:
			now = edge
		case 1:
			now = edge - 1
		case 2:
			now = edge + 1
		case 3: // the same instant again
		case 4:
			now += period * time.Duration(1+rng.Intn(3)) // over whole buckets
		default:
			now += time.Duration(rng.Intn(300)) * time.Millisecond
		}
		v := 100 + 50*rng.Float64()
		if i%500 == 499 {
			st.Close()
			if st, err = Open(dir, opts); err != nil {
				t.Fatal(err)
			}
		}
		mustIngest(t, st, k, now, v)
		for l, period := range rollupPeriods {
			start := now - now%period
			if n := len(want[l]); n == 0 || want[l][n-1].T != start {
				want[l] = append(want[l], FramePoint{T: start, Min: v, Max: v})
				sums[l] = 0
			}
			b := &want[l][len(want[l])-1]
			sums[l] += v
			b.Min, b.Max, b.Last, b.Count = min(b.Min, v), max(b.Max, v), v, b.Count+1
			b.Mean = sums[l] / float64(b.Count)
		}
	}
	for l, res := range []Resolution{Res1s, Res10s, Res60s} {
		frames := st.Query(Query{Resolution: res})
		if len(frames) != 1 || !reflect.DeepEqual(frames[0].Points, want[l]) {
			t.Errorf("res %s: %d buckets served, the modulo makes %d (or they differ)", res, len(frames[0].Points), len(want[l]))
		}
	}
}

// TestFullDiskMidFlushKeepsTheCount is TestFullDiskRejectsIngestAndLosesNothing
// for a cursor: the journal runs out of disk between two series of one flush.
// What the flush acknowledged is exactly what left the set; the head, the
// sample count and the journal stay where the last whole run put them; the
// refused run and everything behind it wait on the set; and a reopen from
// the journal alone finds every acknowledged sample and no other.
func TestFullDiskMidFlushKeepsTheCount(t *testing.T) {
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
	const nseries, run = 3, 34
	set := trace.NewSet()
	for i := 0; i < nseries; i++ {
		set.Add(trace.NewSeries("MSR/Rail "+strconv.Itoa(i), "W"))
	}
	cur := NewSetCursor(st, "c000-001", set)
	appended := 0 // per series
	fill := func() {
		for _, ts := range set.Series {
			for j := len(ts.Samples); j < run; j++ {
				ts.MustAppend(time.Duration(appended+j)*time.Millisecond, float64(appended+j))
			}
		}
		appended += run
	}

	wal.TestHookFallocate = func(int, uint32, int64, int64) error { return syscall.ENOSPC }
	defer func() { wal.TestHookFallocate = nil }()
	for fill(); ; fill() {
		if err = cur.Flush(); err != nil {
			break
		}
		if appended*nseries >= opts.RawCapacity {
			t.Fatal("the journal never needed a second window")
		}
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("flush on a full disk: err = %v", err)
	}
	acked := nseries*appended - cur.Pending()
	pending := func() (p [nseries]int) {
		for i, ts := range set.Series {
			p[i] = len(ts.Samples)
		}
		return p
	}
	left := pending()
	stats := st.StorageStats()
	t.Logf("full after %d samples; the set keeps %v", acked, left)
	if err := cur.Flush(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("second flush on a full disk: err = %v", err)
	}
	landed := 0
	for _, f := range st.Query(Query{}) {
		landed += len(f.Points)
	}
	if got := st.StorageStats(); got.WALBytes != stats.WALBytes || st.Samples() != uint64(acked) || landed != acked || pending() != left {
		t.Fatalf("a refused run moved something: WALBytes %d→%d, %d samples counted, %d served, %d acknowledged, set %v→%v",
			stats.WALBytes, got.WALBytes, st.Samples(), landed, acked, left, pending())
	}
	// Whole runs only: the series before the refused one are empty, it and
	// the ones behind it hold their full run.
	for i, n := range left {
		if n != 0 && n != run {
			t.Fatalf("series %d keeps %d of its %d samples: a run was split without a seal", i, n, run)
		}
	}

	wal.TestHookFallocate = nil
	if err := cur.Flush(); err != nil || cur.Pending() != 0 {
		t.Fatalf("flush after space came back: %v, %d pending", err, cur.Pending())
	}
	st.Close() // no Flush

	re, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rec := re.StorageStats().Recovery; rec.Samples != uint64(nseries*appended) || rec.Lost != 0 {
		t.Fatalf("recovered %d samples (%d lost), acknowledged %d", rec.Samples, rec.Lost, nseries*appended)
	}
	for _, f := range re.Query(Query{}) {
		if len(f.Points) != appended {
			t.Fatalf("%v: %d points after the reopen, want %d", f.Key, len(f.Points), appended)
		}
		for i, p := range f.Points {
			if p.T != time.Duration(i)*time.Millisecond || p.Last != float64(i) {
				t.Fatalf("%v point %d = (%v, %v): a refused run replayed or an acknowledged one moved", f.Key, i, p.T, p.Last)
			}
		}
	}
}

// TestSetCursorJournaledSteadyStateZeroAllocs: the flush an envmond with a
// data directory and /metrics runs at every barrier — run records into the
// journal, the sampled append span — allocates nothing once its series exist.
func TestSetCursorJournaledSteadyStateZeroAllocs(t *testing.T) {
	st, err := Open(t.TempDir(), Options{RawCapacity: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	instrumented(t, st)
	set := trace.NewSet()
	for i := 0; i < 4; i++ {
		set.Add(trace.NewSeries("MSR/Rail "+strconv.Itoa(i), "W"))
	}
	cur := NewSetCursor(st, "c000-001", set)
	at := time.Duration(0)
	epoch := func() {
		for i := 0; i < 34; i++ {
			for _, ts := range set.Series {
				ts.MustAppend(at, 118)
			}
			at += 50 * time.Millisecond
		}
		if err := cur.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	epoch() // first touch: series, refs, the set's capacity, the journal's scratch buffer
	if allocs := testing.AllocsPerRun(200, epoch); allocs != 0 {
		t.Errorf("steady-state journaled Flush allocates %.1f per epoch, want 0", allocs)
	}
}

// TestFlushRacingCloseLosesNothingAcknowledged is
// TestIngestRacingCloseLosesNothingAcknowledged for cursors: flushes run flat
// out while Close runs, and after a reopen every series holds exactly what
// left its writer's set — a run racing Close is journaled whole or refused
// with ErrClosed, never acknowledged unjournaled and never half of it.
func TestFlushRacingCloseLosesNothingAcknowledged(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	var acked [writers]int // each written by one goroutine
	var started, wg sync.WaitGroup
	started.Add(writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			set := trace.NewSet()
			ts := set.Add(trace.NewSeries("MSR/Total Power", "W"))
			cur := NewSetCursor(st, "c000-00"+strconv.Itoa(w), set)
			for i, flushes := 0, 0; ; flushes++ {
				for n := 20 + flushes%15; n > 0; n, i = n-1, i+1 {
					ts.MustAppend(time.Duration(i)*time.Millisecond, float64(i))
				}
				err := cur.Flush()
				acked[w] = i - cur.Pending()
				if errors.Is(err, ErrClosed) {
					return
				} else if err != nil {
					t.Errorf("writer %d flush %d: %v", w, flushes, err)
					return
				}
				if flushes == 5 {
					started.Done()
				}
			}
		}()
	}
	started.Wait() // every writer is mid-stream
	st.Close()
	wg.Wait()

	st2, err := Open(dir, smallOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	infos := st2.Series()
	if len(infos) != writers || st2.StorageStats().Recovery.Lost != 0 {
		t.Fatalf("recovered %d series, %d lost records", len(infos), st2.StorageStats().Recovery.Lost)
	}
	for w, info := range infos { // sorted by key = by writer
		if info.Samples != uint64(acked[w]) {
			t.Errorf("%v: recovered %d samples, %d left the writer's set", info.Key, info.Samples, acked[w])
		}
	}
}

// TestTornRunRecordReplaysNothingOfIt cuts a journal inside its last run
// record, the way a crash in the middle of a write would leave it: the
// reopened store holds every run before it whole and not one sample of the
// torn one.
func TestTornRunRecordReplaysNothingOfIt(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 1}
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	set := trace.NewSet()
	ts := set.Add(trace.NewSeries("MSR/Total Power", "W"))
	cur := NewSetCursor(st, "c000-001", set)
	const runs, run = 5, 34
	for i := 0; i < runs*run; i++ {
		ts.MustAppend(time.Duration(i)*time.Millisecond, float64(i))
		if len(ts.Samples) == run {
			if err := cur.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	st.Close()
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "0", "*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v (err %v), want one", segs, err)
	}
	fi, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], fi.Size()-5*9); err != nil { // five samples short of whole
		t.Fatal(err)
	}
	re, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rec := re.StorageStats().Recovery; rec.Samples != (runs-1)*run || rec.Lost != 0 {
		t.Fatalf("replayed %d samples (%d lost) from a journal torn in its fifth run of %d, want the four whole ones", rec.Samples, rec.Lost, run)
	}
}

// TestReplaySkipsRunSamplesABlockCovers: a run record is replayed sample by
// sample, so one whose leading indexes a block already holds — the journal a
// crash between a block's rename and its segment's unlink leaves behind, and
// then some — adds only the samples past the block.
func TestReplaySkipsRunSamplesABlockCovers(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 1}
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	k := key("c000-001")
	for i := 0; i < 10; i++ {
		mustIngest(t, st, k, time.Duration(i)*time.Second, float64(i))
	}
	if err := st.Flush(); err != nil { // samples 0–9 are in a block
		t.Fatal(err)
	}
	st.Close()
	// A journal, written by hand, whose one run covers samples 5–15.
	w, err := wal.Create(filepath.Join(dir, "wal"), 1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := w.Shard(0).AppendSeries(k, "W")
	if err != nil {
		t.Fatal(err)
	}
	run := make([]trace.Sample, 11)
	for i := range run {
		run[i] = trace.Sample{T: time.Duration(5+i) * time.Second, V: float64(5 + i)}
	}
	if err := w.Shard(0).AppendRun(ref, 5, run, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rec := re.StorageStats().Recovery; rec.Samples != 6 || rec.Lost != 0 {
		t.Fatalf("replayed %d samples (%d lost), want the 6 past the block", rec.Samples, rec.Lost)
	}
	frames := re.Query(Query{})
	if len(frames) != 1 || len(frames[0].Points) != 16 {
		t.Fatalf("frames = %+v, want one of 16 points", frames)
	}
	for i, p := range frames[0].Points {
		if p.T != time.Duration(i)*time.Second || p.Last != float64(i) {
			t.Fatalf("point %d = (%v, %v)", i, p.T, p.Last)
		}
	}
}
