package telemetry

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"envmon/internal/trace"
)

// The tests in this file pin the count seam (DESIGN §9): the stream type
// against a slice model, the whole engine against a never-evicting memory
// store, the bytes compaction writes, and the two shutdown-ordering fixes
// that ride on the shared ingest prologue.

// TestStreamAgainstSliceModel drives one stream with random pushes and
// seals and checks every seam answer against the obvious slice model.
// Entries are instants in time order, repeats included, as ingest keeps
// them, so the window answers are checked too.
func TestStreamAgainstSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	at := func(v int) time.Duration { return time.Duration(v) }
	for round := 0; round < 200; round++ {
		capacity := 1 + rng.Intn(8)
		r := newStream[int](capacity)
		var all []int // every entry ever pushed; all[i] has absolute index i
		sealed := 0
		if rng.Intn(3) == 0 { // a stream restored from a block index
			sealed = rng.Intn(20)
			all = make([]int, sealed)
			for i := range all {
				all[i] = i / 2
			}
			r.restore(uint64(sealed))
		}
		for op := 0; op < 60; op++ {
			// A window [lo, hi) (hi 0: unbounded) over the ring is the live
			// entries inside it, and the blocks may be skipped only when
			// no sealed entry is at or after lo.
			newest := 0
			if len(all) > 0 {
				newest = all[len(all)-1]
			}
			lo, hi := rng.Intn(newest+3)-1, 0
			if rng.Intn(2) == 0 {
				hi = lo + rng.Intn(4)
			}
			var want []int
			for _, e := range all[sealed:] {
				if e >= lo && (hi <= 0 || e < hi) {
					want = append(want, e)
				}
			}
			var got []int
			for i, j := r.window(at(lo), at(hi), at); i < j; i++ {
				got = append(got, r.at(i))
			}
			if !slices.Equal(got, want) {
				t.Fatalf("round %d op %d: window [%d, %d) serves %v, want %v (all %v, sealed %d)", round, op, lo, hi, got, want, all, sealed)
			}
			// Exact when nothing is sealed or the ring still holds the newest
			// sealed entry.
			reach := slices.ContainsFunc(all[:sealed], func(e int) bool { return e >= lo })
			if got := r.sealedFrom(at(lo), at); reach && !got || (sealed == 0 || r.live() > 0) && got != reach {
				t.Fatalf("round %d op %d: sealedFrom(%d) = %v, the blocks hold %v", round, op, lo, got, all[:sealed])
			}
			oldest := int(r.total) - r.len()
			if want := r.len() == capacity && oldest >= sealed; r.pressed() != want {
				t.Fatalf("round %d op %d: pressed = %v, want %v", round, op, r.pressed(), want)
			}
			if r.pressed() || rng.Intn(6) == 0 {
				// What a compaction does: take the pending entries, seal.
				start, got := r.pending(r.total)
				if int(start) != sealed || !slices.Equal(got, all[sealed:]) {
					t.Fatalf("round %d op %d: pending = %d %v, want %d %v", round, op, start, got, sealed, all[sealed:])
				}
				r.sealed = r.total
				sealed = len(all)
			}
			v := newest + rng.Intn(3)
			r.push(v)
			all = append(all, v)
			if int(r.total) != len(all) || *r.tail() != v {
				t.Fatalf("round %d op %d: total %d tail %d after pushing %d as entry %d", round, op, r.total, *r.tail(), v, len(all)-1)
			}
			// Blocks serve [0, sealed); the ring must serve exactly the rest.
			var live []int
			for i := r.live(); i < r.len(); i++ {
				live = append(live, r.at(i))
			}
			if !slices.Equal(live, all[sealed:]) {
				t.Fatalf("round %d op %d: ring serves %v past the seam, want %v", round, op, live, all[sealed:])
			}
		}
	}
}

// modelSeed is the seed the randomized tests run under: CHAOS_SEED, like
// the chaos tests, so CI can sweep it.
func modelSeed(t *testing.T) int64 {
	t.Helper()
	s := os.Getenv("CHAOS_SEED")
	if s == "" {
		return 1337
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		t.Fatalf("bad CHAOS_SEED %q: %v", s, err)
	}
	return int64(v)
}

// TestSeamModel is the seam's property test: a random sequence of Ingest,
// IngestGap, cursor flushes of whole runs, Flush and close-and-Open (at a different shard count and WAL
// budget) on a persistent store whose rings hold 2–8 entries, so pressure
// compaction fires constantly, must stay indistinguishable — on Query at
// every resolution, window and aggregate, on TopK and on Series — from a
// memory store whose rings never evict.
func TestSeamModel(t *testing.T) {
	seed := modelSeed(t)
	rng := rand.New(rand.NewSource(seed))
	opts := Options{RawCapacity: 2 + rng.Intn(7), RollupCapacity: 2 + rng.Intn(7), GapCapacity: 2 + rng.Intn(7)}
	reopts := func() Options {
		o := opts
		o.Shards = 1 + rng.Intn(7)
		o.WALSegmentBytes = []int64{512, 4 << 10, 1 << 20}[rng.Intn(3)]
		return o
	}
	const ops = 1000
	dir := t.TempDir()
	ps, err := Open(dir, reopts())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { ps.Close() }()
	ref := New(Options{Shards: 1, RawCapacity: 2 * ops, RollupCapacity: 2 * ops, GapCapacity: 2 * ops})

	keys := []SeriesKey{
		{Node: "c000-001", Backend: "MSR", Domain: "Total Power"},
		{Node: "c000-001", Backend: "MSR", Domain: "DDR Power"},
		{Node: "c000-001", Backend: "NVML", Domain: "Total Power"},
		{Node: "c000-002", Backend: "NVML", Domain: "Total Power"},
		{Node: "c000-003", Backend: "EMON", Domain: "Total Power"},
	}
	// Newest accepted instant per series, samples and gaps apart: the store
	// orders the two independently.
	lastSample, lastGap := make([]time.Duration, len(keys)), make([]time.Duration, len(keys))
	var horizon time.Duration
	instants := []time.Duration{0} // every accepted instant, for windows that end exactly on one

	op := 0
	check := func(what string) {
		t.Helper()
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("CHAOS_SEED=%d op %d (%s, opts %+v): "+format, append([]any{seed, op, what, ps.opts}, args...)...)
		}
		// Unbounded, a random window, and one whose bounds are instants the
		// stores hold (the half-open edge cases).
		from := time.Duration(rng.Int63n(int64(horizon) + 1))
		a, b := instants[rng.Intn(len(instants))], instants[rng.Intn(len(instants))]
		windows := [][2]time.Duration{{0, 0}, {from, from + time.Duration(rng.Int63n(int64(horizon)+1))}, {min(a, b), max(a, b)}}
		// And windows that start just inside the sealed part, at and just
		// past where one series' ring meets its blocks: the edges of the
		// bisection and of the test for whether blocks are read at all. For
		// a rollup level both ends of the first live bucket are edges.
		k := keys[rng.Intn(len(keys))]
		if s := ps.shards[k.Hash()%uint64(len(ps.shards))].series[k]; s != nil {
			var seams []time.Duration
			if i := s.raw.live(); i < s.raw.len() {
				seams = append(seams, s.raw.at(i).T)
			}
			if i := s.gaps.live(); i < s.gaps.len() {
				seams = append(seams, s.gaps.at(i))
			}
			for l := range s.roll {
				if rb := &s.roll[l]; rb.live() < rb.len() {
					b := rb.at(rb.live())
					seams = append(seams, b.Start, b.Start+rollupPeriods[l])
				}
			}
			if len(seams) > 0 {
				seam := seams[rng.Intn(len(seams))]
				windows = append(windows, [2]time.Duration{seam - 1, 0}, [2]time.Duration{seam, 0}, [2]time.Duration{seam + 1, seam + time.Second})
			}
		}
		for _, res := range []Resolution{Raw, Res1s, Res10s, Res60s} {
			ws := windows
			if p := res.Period(); p > 0 { // and one that ends exactly on bucket edges
				ws = append(slices.Clone(ws), [2]time.Duration{min(a, b).Truncate(p), max(a, b).Truncate(p)})
			}
			for _, w := range ws {
				for _, agg := range []Aggregate{AggNone, AggMean, AggMin, AggMax, AggLast} {
					q := Query{From: w[0], To: w[1], Resolution: res, Aggregate: agg}
					if got, want := ps.Query(q), ref.Query(q); !reflect.DeepEqual(got, want) {
						fail("Query %+v diverges from the memory oracle:\n got %+v\nwant %+v", q, got, want)
					}
				}
				gt, gtotal := ps.TopK(0, "", w[0], w[1], res)
				wt, wtotal := ref.TopK(0, "", w[0], w[1], res)
				if !reflect.DeepEqual(gt, wt) || gtotal != wtotal {
					fail("TopK res=%s window=%v diverges: %+v %v vs %+v %v", res, w, gt, gtotal, wt, wtotal)
				}
			}
		}
		got, want := ps.Series(), ref.Series()
		for i := range got {
			if got[i].Persisted > got[i].Samples {
				fail("series %v: %d of %d samples persisted", got[i].Key, got[i].Persisted, got[i].Samples)
			}
			got[i].Persisted = 0 // the one field a memory store cannot match
		}
		if !reflect.DeepEqual(got, want) {
			fail("Series diverges:\n got %+v\nwant %+v", got, want)
		}
		if ps.Samples() != ref.Samples() || ps.Gaps() != ref.Gaps() || ps.MaxTime() != ref.MaxTime() {
			fail("totals diverge: %d/%d/%v vs %d/%d/%v", ps.Samples(), ps.Gaps(), ps.MaxTime(), ref.Samples(), ref.Gaps(), ref.MaxTime())
		}
	}

	for op = 0; op < ops; op++ {
		switch p := rng.Intn(100); {
		case p < 2:
			if err := ps.Flush(); err != nil {
				t.Fatalf("CHAOS_SEED=%d op %d: flush: %v", seed, op, err)
			}
			check("flush")
		case p < 5:
			ps.Close()
			if ps, err = Open(dir, reopts()); err != nil {
				t.Fatalf("CHAOS_SEED=%d op %d: reopen: %v", seed, op, err)
			}
			if lost := ps.StorageStats().Recovery.Lost; lost != 0 {
				t.Fatalf("CHAOS_SEED=%d op %d: recovery lost %d records", seed, op, lost)
			}
			check("reopen")
		case p < 12:
			// Flush a run: 1–40 samples of one series through a cursor, the
			// oracle taking them one by one. One run in four holds a sample
			// that runs backwards: the flush must land what precedes it,
			// refuse it, and leave it and the rest on the set.
			k := rng.Intn(len(keys))
			set := trace.NewSet()
			ts := set.Add(trace.NewSeries(keys[k].Backend+"/"+keys[k].Domain, "W"))
			n, bad := 1+rng.Intn(40), -1
			if rng.Intn(4) == 0 {
				bad = rng.Intn(n)
			}
			at := lastSample[k]
			for i := 0; i < n; i++ {
				at += time.Duration(rng.Intn(400)) * time.Millisecond
				if rng.Intn(20) == 0 {
					at += time.Duration(rng.Intn(90)) * time.Second
				}
				sm := trace.Sample{T: at, V: 100 + float64(k)*20 + 50*rng.Float64()}
				if i == bad {
					sm.T -= at - lastSample[k] + time.Duration(1+rng.Intn(5))*time.Second // behind everything before it
				}
				ts.Samples = append(ts.Samples, sm)
			}
			want := n
			if bad >= 0 {
				want = bad
			}
			for _, sm := range ts.Samples[:want] {
				if err := ref.Ingest(keys[k], "W", sm.T, sm.V); err != nil {
					t.Fatalf("CHAOS_SEED=%d op %d: oracle refused sample at %v of a run: %v", seed, op, sm.T, err)
				}
				lastSample[k], horizon = sm.T, max(horizon, sm.T)
				instants = append(instants, sm.T)
			}
			err := NewSetCursor(ps, keys[k].Node, set).Flush()
			if (bad < 0) != (err == nil) || (err != nil && !errors.Is(err, ErrOutOfOrder)) || len(ts.Samples) != n-want {
				t.Fatalf("CHAOS_SEED=%d op %d: run of %d (sample %d out of order): flush answered %v and left %d on the set, want %d", seed, op, n, bad, err, len(ts.Samples), n-want)
			}
			if bad >= 0 {
				if rerr := ref.Ingest(keys[k], "W", ts.Samples[0].T, ts.Samples[0].V); !errors.Is(rerr, ErrOutOfOrder) {
					t.Fatalf("CHAOS_SEED=%d op %d: oracle answered %v to the sample the flush refused", seed, op, rerr)
				}
			}
		default:
			k := rng.Intn(len(keys))
			// Mostly sub-second steps (equal timestamps included) with the
			// odd jump, so every rollup level both absorbs into its open
			// tail and opens new buckets; one op in 30 runs backwards and
			// must be rejected by both stores.
			last := &lastSample[k]
			if p < 20 {
				last = &lastGap[k]
			}
			ts := *last + time.Duration(rng.Intn(400))*time.Millisecond
			if rng.Intn(20) == 0 {
				ts += time.Duration(rng.Intn(90)) * time.Second
			}
			if rng.Intn(30) == 0 {
				ts = *last - time.Duration(1+rng.Intn(5))*time.Second
			}
			var perr, rerr error
			if p < 20 {
				perr, rerr = ps.IngestGap(keys[k], "W", ts), ref.IngestGap(keys[k], "W", ts)
			} else {
				v := 100 + float64(k)*20 + 50*rng.Float64()
				perr, rerr = ps.Ingest(keys[k], "W", ts, v), ref.Ingest(keys[k], "W", ts, v)
			}
			if perr != rerr || (perr == nil) != (ts >= *last) {
				t.Fatalf("CHAOS_SEED=%d op %d: t=%v after %v: persistent store answered %v, oracle %v", seed, op, ts, *last, perr, rerr)
			}
			if perr == nil {
				*last = ts
				horizon = max(horizon, ts)
				instants = append(instants, ts)
			}
		}
	}
	check("end")
	if ps.StorageStats().Blocks < 20 {
		t.Fatalf("CHAOS_SEED=%d: only %d blocks: the rings were never under pressure", seed, ps.StorageStats().Blocks)
	}
}

// blocksDigest hashes every file under <dir>/blocks in name order, names
// included, so a block that moved, split or merged changes the digest too.
func blocksDigest(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, "blocks"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name() < entries[j].Name() })
	h := sha256.New()
	for _, e := range entries {
		io.WriteString(h, e.Name())
		h.Write([]byte{0})
		f, err := os.Open(filepath.Join(dir, "blocks", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(h, f); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBlockBytesOnDiskPinned pins the bytes compaction writes: which
// entries each block holds and the absolute indexes it labels them with are
// exactly what the seam decides. The constant was computed by this same
// test at the parent of the commit that introduced stream[T] (13a67b9,
// three hand-written rings and six counters on series), before the refactor
// started, so it holds the old engine's bytes, not the new one's. WAL
// framing is not pinned here: internal/telemetry/wal was not touched by
// that change and its own tests cover the record format.
func TestBlockBytesOnDiskPinned(t *testing.T) {
	const want = "65fc8b0523d1726a944a47607b9bf87463ad364a8a0b6477349c48de267c5797"
	opts := Options{Shards: 3, RawCapacity: 16, RollupCapacity: 3, GapCapacity: 4, WALSegmentBytes: 8 << 10}
	dir := t.TempDir()
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	keys := []SeriesKey{
		{Node: "c000-001", Backend: "MSR", Domain: "Total Power"},
		{Node: "c000-001", Backend: "MSR", Domain: "DDR Power"},
		{Node: "c000-002", Backend: "NVML", Domain: "Total Power"},
		{Node: "c000-003", Backend: "MICRAS daemon", Domain: "Die Temperature"},
		{Node: "c000-004", Backend: "EMON", Domain: "Total Power"},
	}
	now := make([]time.Duration, len(keys))
	ingest := func(from, to int) {
		for i := from; i < to; i++ {
			if i == 1500 || i == 3200 {
				if err := st.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			k := rng.Intn(len(keys))
			// Mostly sub-second steps with the odd multi-second jump, so
			// every rollup level both absorbs into its tail and opens new
			// buckets.
			now[k] += time.Duration(rng.Intn(400)) * time.Millisecond
			if rng.Intn(25) == 0 {
				now[k] += time.Duration(rng.Intn(90)) * time.Second
			}
			if rng.Intn(9) == 0 {
				err = st.IngestGap(keys[k], "W", now[k])
			} else {
				err = st.Ingest(keys[k], "W", now[k], 150+100*rng.Float64())
			}
			if err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	ingest(0, 4000)
	// Reopen without a flush, at another shard count: the replayed tail is
	// sealed by Open and later blocks start from the restored seam.
	st.Close()
	opts.Shards = 2
	if st, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	ingest(4000, 5000)
	st.Close()
	if n := st.StorageStats().Blocks; n < 10 {
		t.Fatalf("workload sealed only %d blocks", n)
	}
	if got := blocksDigest(t, dir); got != want {
		t.Fatalf("blocks/ digest = %s, want %s", got, want)
	}
}

// TestIngestPastCloseIsRejectedUnderTheLock is the deterministic half of
// the Close race: an ingest that read closed as false before Close ran and
// reaches its shard lock afterwards finds the journal detached. Calling the
// shared prologue directly after Close is that interleaving. It must reject
// — on a persistent store an acknowledged ingest with no journal record
// would break "a successful return means the sample survives a crash".
func TestIngestPastCloseIsRejectedUnderTheLock(t *testing.T) {
	st, err := Open(t.TempDir(), smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	key := SeriesKey{Node: "c000-001", Backend: "MSR", Domain: "Total Power"}
	if err := st.Ingest(key, "W", 0, 1); err != nil {
		t.Fatal(err)
	}
	st.Close()
	for _, k := range []SeriesKey{key, {Node: "c000-002", Backend: "MSR", Domain: "Total Power"}} {
		rejected := st.ingestErrs.Load()
		sh, s, err := st.lockSeries(k, "W", time.Second)
		if !errors.Is(err, ErrClosed) || sh != nil || s != nil {
			t.Fatalf("lockSeries(%v) after Close = (%v, %v, %v), want ErrClosed alone", k, sh, s, err)
		}
		if got := st.ingestErrs.Load(); got != rejected+1 {
			t.Fatalf("ingestErrs went %d → %d, want one rejection counted", rejected, got)
		}
	}
	for i := range st.shards {
		if !st.shards[i].mu.TryLock() {
			t.Fatalf("shard %d left locked by the rejected prologue", i)
		}
		st.shards[i].mu.Unlock()
	}
	if st.NumSeries() != 1 || st.Samples() != 1 || st.Gaps() != 0 {
		t.Fatalf("closed store absorbed something: %d series, %d samples, %d gaps", st.NumSeries(), st.Samples(), st.Gaps())
	}
	if err := st.Ingest(key, "W", time.Second, 2); !errors.Is(err, ErrClosed) {
		t.Fatalf("Ingest after Close = %v", err)
	}
	if err := st.IngestGap(key, "W", time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("IngestGap after Close = %v", err)
	}
}

// TestIngestRacingCloseLosesNothingAcknowledged is the concurrent half:
// writers ingest flat out while Close runs, and after a reopen every series
// must hold exactly the samples and gaps its writer saw acknowledged.
func TestIngestRacingCloseLosesNothingAcknowledged(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	var acked [writers][2]uint64 // samples, gaps; each written by one goroutine
	var started, wg sync.WaitGroup
	started.Add(writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := SeriesKey{Node: "c000-00" + strconv.Itoa(w), Backend: "MSR", Domain: "Total Power"}
			for i := 0; ; i++ {
				ts, kind := time.Duration(i)*time.Millisecond, 0
				var err error
				if i%5 == 4 {
					kind = 1
					err = st.IngestGap(key, "W", ts)
				} else {
					err = st.Ingest(key, "W", ts, float64(i))
				}
				if errors.Is(err, ErrClosed) {
					return
				} else if err != nil {
					t.Errorf("writer %d op %d: %v", w, i, err)
					return
				}
				acked[w][kind]++
				if i == 50 {
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
		if info.Samples != acked[w][0] || info.Gaps != acked[w][1] {
			t.Errorf("%v: recovered %d samples %d gaps, writer saw %d and %d acknowledged",
				info.Key, info.Samples, info.Gaps, acked[w][0], acked[w][1])
		}
	}
}

// TestFlushAfterClose: a persistent store that is closed has no journal to
// seal against, so Flush must not report the success that promises "fully
// reconstructible from the block store alone". Memory-only stores flush
// trivially, open or closed.
func TestFlushAfterClose(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	ingestWorkload(t, st, 0, 20) // stays in the rings and the journal
	blocks := st.StorageStats().Blocks
	st.Close()
	if err := st.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Flush on a closed persistent store = %v, want ErrClosed", err)
	}
	if got := st.StorageStats().Blocks; got != blocks {
		t.Fatalf("closed Flush wrote blocks: %d → %d", blocks, got)
	}

	mem := New(Options{})
	mem.Close()
	if err := mem.Flush(); err != nil {
		t.Fatalf("Flush on a closed memory-only store = %v, want nil", err)
	}
}
