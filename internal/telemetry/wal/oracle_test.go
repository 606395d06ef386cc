package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"

	"envmon/internal/telemetry/storage"
	"envmon/internal/trace"
)

// Sample and Gap are replayed records as a flat list, each carrying its own
// series key and unit: the shape Replay returned before it grouped records
// by series, kept as the oracle's output and as what flatten makes of
// Replay's streams. Exported for the store-level test in package wal_test.
type Sample struct {
	Key   storage.SeriesKey
	Unit  string
	Index uint64
	T     time.Duration
	V     float64
}

type Gap struct {
	Key   storage.SeriesKey
	Unit  string
	Index uint64
	T     time.Duration
}

// flatten lays Replay's streams out as one record per entry, in apply order,
// each with its stream's unit.
func flatten(samples, gaps []Stream) (fs []Sample, fg []Gap) {
	for _, r := range samples {
		for _, e := range r.Entries {
			fs = append(fs, Sample{Key: r.Key, Unit: r.Unit, Index: e.Index, T: e.T, V: e.V})
		}
	}
	for _, r := range gaps {
		for _, e := range r.Entries {
			fg = append(fg, Gap{Key: r.Key, Unit: r.Unit, Index: e.Index, T: e.T})
		}
	}
	return fs, fg
}

// replayFlat is Replay, flattened.
func replayFlat(dir string) ([]Sample, []Gap, error) {
	samples, gaps, err := Replay(dir)
	fs, fg := flatten(samples, gaps)
	return fs, fg, err
}

// OracleReplay is replay as it was before records were grouped by series:
// every record of every segment decoded into one flat list in read order —
// shard directories in os.ReadDir order, segments by sequence, records by
// offset — then ordered by the stable (key, index) sort recovery applied.
// Each record keeps the unit its declaration gave; oracleUnits gives each
// series the one recovery kept.
func OracleReplay(t testing.TB, dir string) ([]Sample, []Gap) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var samples []Sample
	var gaps []Gap
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		sd := filepath.Join(dir, e.Name())
		seqs, err := segmentSeqs(sd)
		if err != nil {
			t.Fatal(err)
		}
		for _, seq := range seqs {
			data, err := os.ReadFile(filepath.Join(sd, fmt.Sprintf("%08d.wal", seq)))
			if err != nil {
				t.Fatal(err)
			}
			s, g, err := oracleSegment(data)
			if err != nil {
				t.Fatalf("segment %s/%d: %v", e.Name(), seq, err)
			}
			samples, gaps = append(samples, s...), append(gaps, g...)
		}
	}
	oracleSort(samples, gaps)
	return samples, gaps
}

// oracleSort is the order recovery applied records in before they were
// grouped, comparator and all.
func oracleSort(samples []Sample, gaps []Gap) {
	sort.SliceStable(samples, func(i, j int) bool {
		if samples[i].Key != samples[j].Key {
			return storage.KeyLess(samples[i].Key, samples[j].Key)
		}
		return samples[i].Index < samples[j].Index
	})
	sort.SliceStable(gaps, func(i, j int) bool {
		if gaps[i].Key != gaps[j].Key {
			return storage.KeyLess(gaps[i].Key, gaps[j].Key)
		}
		return gaps[i].Index < gaps[j].Index
	})
}

// oracleUnits gives every sorted record the unit of its series' first one:
// the unit recovery created the series with, the first sample's — or, for a
// series of gaps alone, the first gap's.
func oracleUnits(samples []Sample, gaps []Gap) {
	for i := 1; i < len(samples); i++ {
		if samples[i].Key == samples[i-1].Key {
			samples[i].Unit = samples[i-1].Unit
		}
	}
	for i := 1; i < len(gaps); i++ {
		if gaps[i].Key == gaps[i-1].Key {
			gaps[i].Unit = gaps[i-1].Unit
		}
	}
}

// oracleSegment decodes one segment's records in read order, each expanded
// to flat records, by the frame rules replayBytes follows: a segment ends at
// an empty frame, an overlong one or a failed checksum; a record too short
// for its type adds nothing and is the error, as is a ref never declared.
func oracleSegment(data []byte) (samples []Sample, gaps []Gap, err error) {
	if len(data) < 8 || string(data[:4]) != magic || binary.LittleEndian.Uint32(data[4:8]) != version {
		return nil, nil, fmt.Errorf("bad segment header")
	}
	type declared struct {
		key  storage.SeriesKey
		unit string
	}
	refs := map[uint64]declared{}
	for p := data[8:]; len(p) >= 8; {
		plen := uint64(binary.LittleEndian.Uint32(p))
		if plen == 0 || plen > uint64(len(p)-8) || crc32.Checksum(p[8:8+plen], storage.Castagnoli) != binary.LittleEndian.Uint32(p[4:]) {
			break
		}
		r := storage.Reader{P: p[8 : 8+plen]}
		p = p[8+plen:]
		typ, ref := r.Byte(), r.Uvarint()
		if r.Err != nil {
			return samples, gaps, r.Err
		}
		if typ == recSeries {
			var d declared
			d.key.Node, d.key.Backend, d.key.Domain, d.unit = r.Str(), r.Str(), r.Str(), r.Str()
			if r.Err != nil {
				return samples, gaps, r.Err
			}
			refs[ref] = d
			continue
		}
		if typ != recSample && typ != recRun && typ != recGap {
			return samples, gaps, fmt.Errorf("unknown record type %d", typ)
		}
		d, ok := refs[ref]
		if !ok {
			return samples, gaps, fmt.Errorf("record type %d references undeclared series %d", typ, ref)
		}
		switch typ {
		case recSample:
			s := Sample{Key: d.key, Unit: d.unit, Index: r.Uvarint(), T: time.Duration(r.Varint()), V: r.Float64()}
			if r.Err == nil {
				samples = append(samples, s)
			}
		case recGap:
			g := Gap{Key: d.key, Unit: d.unit, Index: r.Uvarint(), T: time.Duration(r.Varint())}
			if r.Err == nil {
				gaps = append(gaps, g)
			}
		case recRun:
			idx, n, t := r.Uvarint(), r.Uvarint(), r.Varint()
			if n > uint64(len(r.P))/9 {
				r.Err = io.ErrUnexpectedEOF
			}
			var run []Sample
			for ; n > 0 && r.Err == nil; n, idx = n-1, idx+1 {
				step := r.Uvarint()
				if step > uint64(math.MaxInt64-max(t, 0)) {
					r.Err = fmt.Errorf("run steps past the end of time")
					break
				}
				t += int64(step)
				run = append(run, Sample{Key: d.key, Unit: d.unit, Index: idx, T: time.Duration(t), V: r.Float64()})
			}
			if r.Err == nil {
				samples = append(samples, run...)
			}
		}
		if r.Err != nil {
			return samples, gaps, r.Err
		}
	}
	return samples, gaps, nil
}

// sameSamples compares values by their bits, so NaN equals itself.
func sameSamples(a, b []Sample) bool {
	return slices.EqualFunc(a, b, func(x, y Sample) bool {
		return x.Key == y.Key && x.Unit == y.Unit && x.Index == y.Index && x.T == y.T &&
			math.Float64bits(x.V) == math.Float64bits(y.V)
	})
}

// ChaosSeed is the seed the randomized journal tests run under: CHAOS_SEED,
// like the store's chaos tests, so CI can sweep it.
func ChaosSeed(t testing.TB) int64 {
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

// The series WriteJournal writes. DeclOnly is declared and never written,
// GapOnly has gap markers alone, TwoUnits is declared under "W" and "mW".
var (
	journalKeys = []storage.SeriesKey{
		{Node: "c000-001", Backend: "MSR", Domain: "Total Power"},
		{Node: "c000-001", Backend: "MSR", Domain: "DDR Power"},
		{Node: "c000-002", Backend: "NVML", Domain: "Total Power"},
		{Node: "c000-010", Backend: "MSR", Domain: "Total Power"},
	}
	DeclOnly = storage.SeriesKey{Node: "c000-003", Backend: "SMC", Domain: "Total Power"}
	GapOnly  = storage.SeriesKey{Node: "c000-004", Backend: "SMC", Domain: "Total Power"}
	TwoUnits = journalKeys[2]
)

// JournalShards is how many shard directories WriteJournal fills: more than
// ten, so os.ReadDir reads "10" and "11" before "2".
const JournalShards = 12

// WriteJournal writes a seeded journal under dir as restarts and crashes
// leave one. Every shard directory gets one segment per round (Create leaves
// older segments alone). Each segment declares a few series and journals
// samples, run records and gap markers whose indexes repeat with other
// values and step back from the newest index already written — so
// duplicates and backward indexes fall across directories and across
// segments. Some rounds' segments lose a few bytes off the end: torn tails,
// read before later rounds' segments. Every series' first three samples
// and first three gaps are written last in round 0, which is never torn, to
// the shard directory read fourth ("11"); the three read before it already
// hold later indexes, and other values and units for some of the first
// ones. So every series with records is created by a record recovery
// applies, and the record it applies first is not the first one read. One
// sample lies far past its series' end. A sample at index i is at i×50 ms
// and a gap at i×50 ms + 25 ms, so the records recovery applies are in time
// order and a store can take them by direct ingest. WriteJournal returns
// how many segments it tore.
func WriteJournal(t testing.TB, dir string, seed int64) (torn int) {
	t.Helper()
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5eed))
	const firsts = 3
	nextSample := map[storage.SeriesKey]uint64{}
	nextGap := map[storage.SeriesKey]uint64{}
	for _, key := range append(slices.Clone(journalKeys), GapOnly) {
		nextSample[key], nextGap[key] = firsts, firsts
	}
	// back is an index at most three below the next one, clamped at zero:
	// the first records of a series repeat in directories read before them.
	back := func(next uint64) uint64 { return next - min(next, uint64(rng.IntN(4))) }
	sampleT := func(idx uint64) time.Duration { return time.Duration(idx) * 50 * time.Millisecond }
	gapT := func(idx uint64) time.Duration { return sampleT(idx) + 25*time.Millisecond }
	value := func() float64 { return float64(rng.IntN(4000)) / 4 }
	const rounds = 4
	for round := 0; round < rounds; round++ {
		w, err := Create(dir, JournalShards)
		if err != nil {
			t.Fatal(err)
		}
		if round == rounds-1 {
			// A sample far past its series' end, ahead of what any tear
			// reaches: recovery counts it lost.
			key := journalKeys[0]
			ref, err := w.Shard(0).AppendSeries(key, "W")
			if err == nil {
				err = w.Shard(0).AppendSample(ref, nextSample[key]+1000, sampleT(nextSample[key]+1000), value())
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < JournalShards; i++ {
			sh := w.Shard(i)
			keys := slices.Clone(journalKeys)
			rng.Shuffle(len(keys), func(a, b int) { keys[a], keys[b] = keys[b], keys[a] })
			keys = append(keys[:rng.IntN(len(keys)+1)], DeclOnly, GapOnly)
			firstShard := round == 0 && i == JournalShards-1
			if firstShard {
				keys = append(slices.Clone(journalKeys), DeclOnly, GapOnly)
			}
			for _, key := range keys {
				unit := "W"
				if key == TwoUnits && rng.IntN(2) == 0 {
					unit = "mW"
				}
				ref, err := sh.AppendSeries(key, unit)
				if err != nil {
					t.Fatal(err)
				}
				if key == DeclOnly {
					continue
				}
				if firstShard {
					run := make([]trace.Sample, firsts)
					for idx := range uint64(firsts) {
						run[idx] = trace.Sample{T: sampleT(idx), V: value()}
						if err := sh.AppendGap(ref, idx, gapT(idx)); err != nil {
							t.Fatal(err)
						}
					}
					if key != GapOnly {
						if err := sh.AppendRun(ref, 0, run, 0); err != nil {
							t.Fatal(err)
						}
					}
				}
				for n := 1 + rng.IntN(4); n > 0; n-- {
					var err error
					switch kind := rng.IntN(4); {
					case key == GapOnly || kind == 0:
						idx := back(nextGap[key])
						err = sh.AppendGap(ref, idx, gapT(idx))
						nextGap[key] = max(nextGap[key], idx+1)
					case kind == 1:
						idx := back(nextSample[key])
						err = sh.AppendSample(ref, idx, sampleT(idx), value())
						nextSample[key] = max(nextSample[key], idx+1)
					default:
						idx, run := back(nextSample[key]), make([]trace.Sample, 1+rng.IntN(6))
						for j := range run {
							run[j] = trace.Sample{T: sampleT(idx + uint64(j)), V: value()}
						}
						err = sh.AppendRun(ref, idx, run, 0)
						nextSample[key] = max(nextSample[key], idx+uint64(len(run)))
					}
					if err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if round == 0 {
			continue
		}
		for i := 0; i < JournalShards; i++ {
			if rng.IntN(3) != 0 {
				continue
			}
			seqs, err := segmentSeqs(filepath.Join(dir, strconv.Itoa(i)))
			if err != nil {
				t.Fatal(err)
			}
			seg := filepath.Join(dir, strconv.Itoa(i), fmt.Sprintf("%08d.wal", seqs[len(seqs)-1]))
			fi, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size() > 8+1 {
				if err := os.Truncate(seg, fi.Size()-1-rng.Int64N(min(fi.Size()-9, 24))); err != nil {
					t.Fatal(err)
				}
				torn++
			}
		}
	}
	return torn
}

// TestReplayMatchesOracle: on seeded journals, Replay's streams, flattened,
// are the oracle's records in the oracle's order, each series under the
// unit recovery created it with.
func TestReplayMatchesOracle(t *testing.T) {
	seed := ChaosSeed(t)
	torn := 0
	for i := range int64(6) {
		dir := t.TempDir()
		torn += WriteJournal(t, dir, seed+i)
		wantS, wantG := OracleReplay(t, dir)
		checkJournalCases(t, seed+i, wantS, wantG)
		oracleUnits(wantS, wantG)
		samples, gaps, err := replayFlat(dir)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%d journal %d: %v", seed, i, err)
		}
		if !sameSamples(samples, wantS) {
			k := firstDiff(len(samples), len(wantS), func(k int) bool { return sameSamples(samples[k:k+1], wantS[k:k+1]) })
			t.Fatalf("CHAOS_SEED=%d journal %d: %d samples replayed, the oracle has %d; first difference at %d", seed, i, len(samples), len(wantS), k)
		}
		if !slices.Equal(gaps, wantG) {
			k := firstDiff(len(gaps), len(wantG), func(k int) bool { return gaps[k] == wantG[k] })
			t.Fatalf("CHAOS_SEED=%d journal %d: %d gaps replayed, the oracle has %d; first difference at %d", seed, i, len(gaps), len(wantG), k)
		}
	}
	if torn == 0 {
		t.Fatalf("CHAOS_SEED=%d: no journal had a torn segment", seed)
	}
}

// checkJournalCases fails unless the oracle's records, units as declared,
// show what WriteJournal promises: an index read twice with two values, a
// series declared only, one of gaps only, and one under two units.
func checkJournalCases(t *testing.T, seed int64, samples []Sample, gaps []Gap) {
	t.Helper()
	dup, units := false, map[string]bool{}
	for i, s := range samples {
		if i > 0 && s.Key == samples[i-1].Key && s.Index == samples[i-1].Index && s.V != samples[i-1].V {
			dup = true
		}
		if s.Key == TwoUnits {
			units[s.Unit] = true
		}
		if s.Key == DeclOnly || s.Key == GapOnly {
			t.Fatalf("seed %d: a sample of %v", seed, s.Key)
		}
	}
	gapOnly := false
	for _, g := range gaps {
		gapOnly = gapOnly || g.Key == GapOnly
		if g.Key == DeclOnly {
			t.Fatalf("seed %d: a gap of %v", seed, g.Key)
		}
	}
	if !dup || len(units) != 2 || !gapOnly {
		t.Fatalf("seed %d: duplicate index with two values %v, units of %v %v, gaps of %v %v", seed, dup, TwoUnits, units, GapOnly, gapOnly)
	}
}

// firstDiff is the first position below the shorter length where same is
// false, else that length.
func firstDiff(a, b int, same func(int) bool) int {
	k := 0
	for k < min(a, b) && same(k) {
		k++
	}
	return k
}
