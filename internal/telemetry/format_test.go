package telemetry

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"envmon/internal/telemetry/block"
	"envmon/internal/telemetry/storage"
)

// The tests in this file pin the block format from the outside: what it
// costs per sample on a poller's stream, that format v1 and v2 directories
// still open and answer as they did, and that a corrupt chunk is never
// served.

// TestBlockBytesPerSample seals three streams shaped like bench's
// ingest-durable one and holds the block bytes per ingested sample, rollup
// ladder and gap chunks included, against what block format v2 wrote for
// the same stream:
//   - quarter-watt, bench's own: a slow triangle plus two bits of noise in
//     0.25 W steps. v1, whose buckets were raw words, read about 3.5 here
//     and v2 1.791; the gate is 1.3.
//   - NVML-style, float64(mw)/1000 with a quarter-watt of noise in mW:
//     exact at three decimals, so at most half of v2's 8.162.
//   - RAPL-derived, 2^-14 J energy units over the measured interval, which
//     jitters by up to 20 µs: full-precision watts that no decimal scale
//     holds, within 1 % of v2's 8.419. (Over a fixed 50 ms the watts are
//     units·5/4096, exact at twelve decimals, and scaled mode finds the
//     units themselves.)
//
// Each stream's store is reopened, so that every answer comes from its
// blocks, and must answer every resolution as a memory store fed the same
// stream does.
func TestBlockBytesPerSample(t *testing.T) {
	for _, tc := range []struct {
		name  string
		value func(rng *rand.Rand, k, p int) float64
		limit float64
	}{
		{"quarter-watt", func(rng *rand.Rand, k, p int) float64 {
			return 200 + 12.5*float64(k) + float64(p)*0.25 + float64(rng.Intn(4))*0.25
		}, 1.3},
		{"nvml-mw", func(rng *rand.Rand, k, p int) float64 {
			return float64(150_000+1_000*k+40*p+rng.Intn(250)) / 1000
		}, 8.162 / 2},
		{"rapl-derived", func(rng *rand.Rand, k, p int) float64 {
			units := int((200+12.5*float64(k)+float64(p)*0.25)*0.05*16384) + rng.Intn(64)
			dt := time.Duration(50_000_000 + rng.Intn(20_000))
			return float64(units) / 16384 / dt.Seconds()
		}, 8.419 * 1.01},
	} {
		t.Run(tc.name, func(t *testing.T) {
			perSample := sealedStream(t, tc.value)
			t.Logf("%.3f B per sample", perSample)
			if perSample > tc.limit {
				t.Fatalf("blocks hold %.3f B per sample, want at most %.3f", perSample, tc.limit)
			}
		})
	}
}

// sealedStream ingests 16 series at a 50 ms cadence for 12 Ki epochs, a
// failed poll every 997th slot, value(rng, k, p) the sample of series k at
// phase p of its triangle, seals it all with Flush and reopens. It holds
// the reopened store's answers to a memory store's and returns the block
// bytes per sample.
func sealedStream(t *testing.T, value func(rng *rand.Rand, k, p int) float64) float64 {
	const series, epochs, cadence = 16, 12 << 10, 50 * time.Millisecond
	dir := t.TempDir()
	st, err := Open(dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { st.Close() }()
	ref := New(Options{Shards: 1, RawCapacity: epochs, RollupCapacity: 1 << 10, GapCapacity: 1 << 8})
	keys := make([]SeriesKey, series)
	for k := range keys {
		keys[k] = SeriesKey{Node: fmt.Sprintf("n%04d", k), Backend: "MSR", Domain: "Total Power"}
	}
	rng := rand.New(rand.NewSource(41))
	samples := 0
	for j := 0; j < epochs; j++ {
		at := time.Duration(j+1) * cadence
		for k, key := range keys {
			if (j*series+k)%997 == 0 {
				if err := errors.Join(st.IngestGap(key, "W", at), ref.IngestGap(key, "W", at)); err != nil {
					t.Fatal(err)
				}
				continue
			}
			p := (j + 25*k) % 400
			if p >= 200 {
				p = 400 - p
			}
			v := value(rng, k, p)
			if err := errors.Join(st.Ingest(key, "W", at, v), ref.Ingest(key, "W", at, v)); err != nil {
				t.Fatal(err)
			}
			samples++
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if st, err = Open(dir, Options{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	stats := st.StorageStats()
	gotFrames, gotTop, gotTotal := allQueries(st)
	wantFrames, wantTop, wantTotal := allQueries(ref)
	if !reflect.DeepEqual(gotFrames, wantFrames) || !reflect.DeepEqual(gotTop, wantTop) || gotTotal != wantTotal {
		t.Fatal("the sealed stream answers differently from a memory store fed the same")
	}
	if n := st.StorageStats().ReadErrors; n != 0 {
		t.Fatalf("%d read errors", n)
	}
	return float64(stats.BlockBytes) / float64(samples)
}

// TestFlippedChunkByteIsNeverServed seals one series into one block, flips
// a bit of its point chunk's first value (every later value is coded
// against it, so a decoder that trusted it would serve every value off by
// that flip, readings nobody measured) and reopens: a raw query must serve
// no value that was never ingested, and count the chunk in ReadErrors.
func TestFlippedChunkByteIsNeverServed(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 1}
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	key := SeriesKey{Node: "c000-001", Backend: "MSR", Domain: "Total Power"}
	ingested := map[Point]bool{}
	var pts []Point
	for i := 0; i < 1000; i++ {
		p := Point{T: time.Duration(i) * 50 * time.Millisecond, V: 200 + float64(i%40)*0.25}
		if err := st.Ingest(key, "W", p.T, p.V); err != nil {
			t.Fatal(err)
		}
		ingested[p] = true
		pts = append(pts, p)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if n := st.StorageStats().Blocks; n != 1 {
		t.Fatalf("sealed %d blocks, want 1", n)
	}
	// The block's first chunk is the series' points, after the 8-byte
	// header. Where in it the first value lies depends on the value
	// column's mode, so the encoder finds it: the first bit at which the
	// chunk differs from that of the same points with the first value a
	// quarter-watt up is one of the first value's.
	path := filepath.Join(dir, "blocks", "b-00000001.blk")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	chunk := storage.EncodePoints(nil, pts)
	if !bytes.HasPrefix(data[8:], chunk) {
		t.Fatal("the block's first chunk is not the series' points")
	}
	up := slices.Clone(pts)
	up[0].V += 0.25
	other := storage.EncodePoints(nil, up)
	i := 0
	for chunk[i] == other[i] {
		i++
	}
	data[8+i] ^= byte(1 << (bits.Len8(chunk[i]^other[i]) - 1))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if st, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, f := range st.Query(Query{Resolution: Raw}) {
		for _, p := range f.Points {
			if !ingested[Point{T: p.T, V: p.Last}] {
				t.Fatalf("served %v at %v, never ingested", p.Last, p.T)
			}
		}
	}
	if st.StorageStats().ReadErrors == 0 {
		t.Fatal("a raw query read the corrupt chunk without counting a read error")
	}
}

// TestBlockFormatV1StaysReadable holds the format the store writes to the
// bytes format v1 wrote. testdata/blocks-v1.tar.gz is the blocks/
// directory TestBlockBytesOnDiskPinned's workload wrote in format v1,
// whose digest that test pinned as v1Digest.
func TestBlockFormatV1StaysReadable(t *testing.T) {
	holdToFixture(t, filepath.Join("testdata", "blocks-v1.tar.gz"), v1Digest)
}

// TestBlockFormatV2StaysReadable holds the format the store writes to the
// bytes format v2 wrote. testdata/blocks-v2.tar.gz is the blocks/
// directory TestBlockBytesOnDiskPinned's workload wrote in format v2,
// whose digest that test pinned as v2Digest; its chunks decode through the
// v3 decoders with every column XOR.
func TestBlockFormatV2StaysReadable(t *testing.T) {
	holdToFixture(t, filepath.Join("testdata", "blocks-v2.tar.gz"), v2Digest)
}

// holdToFixture unpacks a fixture of the pinned workload's blocks/ in an
// older format, checks it against its digest, and runs the workload at
// the current format. That must write the same files, each holding, series
// by series, the same points, gap markers and closed buckets per level
// under the same persisted index ranges, instants and tails; and the store
// opened on either directory alone must answer every resolution the same.
func holdToFixture(t *testing.T, archive, digest string) {
	old := t.TempDir()
	untar(t, archive, filepath.Join(old, "blocks"))
	if got := blocksDigest(t, old); got != digest {
		t.Fatalf("%s digest = %s, want %s", archive, got, digest)
	}
	cur := pinnedWorkload(t)
	namesOld, namesCur := blockFiles(t, old), blockFiles(t, cur)
	if !slices.Equal(namesOld, namesCur) {
		t.Fatalf("the store wrote files %v, the fixture holds %v", namesCur, namesOld)
	}
	scratch := t.TempDir()
	for _, name := range namesOld {
		dOld := dumpBlockFile(t, scratch, filepath.Join(old, "blocks", name))
		dCur := dumpBlockFile(t, scratch, filepath.Join(cur, "blocks", name))
		if dOld != dCur {
			lOld, lCur := strings.Split(dOld, "\n"), strings.Split(dCur, "\n")
			for i := range min(len(lOld), len(lCur)) {
				if lOld[i] != lCur[i] {
					t.Fatalf("%s line %d: the store's file holds %q, the fixture's %q", name, i, lCur[i], lOld[i])
				}
			}
			t.Fatalf("%s: the store's file holds %d lines, the fixture's %d", name, len(lCur), len(lOld))
		}
	}

	// The blocks alone: the workload's unsealed journal tail goes.
	if err := os.RemoveAll(filepath.Join(cur, "wal")); err != nil {
		t.Fatal(err)
	}
	type answer struct {
		frames map[Resolution][]Frame
		top    []NodePower
		total  float64
	}
	var answers [2]answer
	for i, dir := range []string{old, cur} {
		st, err := Open(dir, pinnedWorkloadOpts)
		if err != nil {
			t.Fatal(err)
		}
		a := &answers[i]
		a.frames, a.top, a.total = allQueries(st)
		stats := st.StorageStats()
		st.Close()
		if stats.ReadErrors != 0 || stats.Blocks != len(namesOld) {
			t.Fatalf("%s: %d read errors over %d blocks, want 0 over %d", dir, stats.ReadErrors, stats.Blocks, len(namesOld))
		}
		for res, frames := range a.frames {
			if len(frames) != 5 || len(frames[0].Points) == 0 {
				t.Fatalf("%s: %s answered %d frames, the first with %d points", dir, res, len(frames), len(frames[0].Points))
			}
		}
	}
	if !reflect.DeepEqual(answers[0], answers[1]) {
		t.Fatalf("the store answers differently over its own blocks than over those of %s", archive)
	}
}

// untar extracts a gzipped tar of plain files into dir.
func untar(t testing.TB, archive, dir string) {
	t.Helper()
	f, err := os.Open(archive)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	tr := tar.NewReader(zr)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for {
		h, err := tr.Next()
		if err == io.EOF {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(tr)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(h.Name)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func blockFiles(t testing.TB, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, "blocks"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// dumpBlockFile opens the block file alone, as the only file of a block
// store in scratch, and renders everything it holds: per series its unit,
// the ends of its persisted index ranges, its instants and level tails,
// then every point, gap marker and closed bucket its chunks decode to, with
// values as bit patterns. The ends and the entry counts give the ranges.
func dumpBlockFile(t *testing.T, scratch, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	alone := filepath.Join(scratch, filepath.Base(path))
	if err := os.WriteFile(alone, data, 0o644); err != nil {
		t.Fatal(err)
	}
	defer os.Remove(alone)
	bs, err := block.Open(scratch)
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	var b strings.Builder
	bucket := func(k Bucket) string {
		return fmt.Sprintf("%d %d %x %x %x %x", k.Start, k.Count,
			math.Float64bits(k.Min), math.Float64bits(k.Max), math.Float64bits(k.Sum), math.Float64bits(k.Last))
	}
	bs.Each(func(key SeriesKey, a block.Agg) {
		fmt.Fprintf(&b, "%v %s: points to %d, gaps to %d, buckets to %v; minT %d lastT %d lastGapT %d\n",
			key, a.Unit, a.Points, a.Gaps, a.Buckets, a.MinT, a.LastT, a.LastGapT)
		for l, tail := range a.Tails {
			if tail != nil {
				fmt.Fprintf(&b, "tail %d: %s\n", l, bucket(*tail))
			}
		}
		scan := func(err error) {
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
		}
		scan(bs.EachPoint(key, math.MinInt64, 0, func(p Point) { fmt.Fprintf(&b, "p %d %x\n", p.T, math.Float64bits(p.V)) }))
		scan(bs.EachGap(key, math.MinInt64, 0, func(g time.Duration) { fmt.Fprintf(&b, "g %d\n", g) }))
		for l, period := range storage.RollupPeriods {
			scan(bs.EachClosedBucket(key, l, period, -1<<62, 0, func(k Bucket) { fmt.Fprintf(&b, "b%d %s\n", l, bucket(k)) }))
		}
	})
	return b.String()
}

// FuzzOpenBlock hands block.Open one file of any bytes, as they are and
// again with the footer's index checksum made to match, so that a mutation
// reaches the index parser and not only the checksum in front of it. What
// Open accepts is then read back through every scan a query makes. Open
// and the scans may refuse the file; nothing may panic or allocate past
// the file's size, and PointsIn, which a raw query sizes its columns by,
// never claims more points than the file's bytes can encode at two bits a
// point. Seeds: the files of TestBlockBytesOnDiskPinned's workload and of
// the v1 and v2 fixtures.
func FuzzOpenBlock(f *testing.F) {
	dirs := []string{pinnedWorkload(f)}
	for _, archive := range []string{"blocks-v1.tar.gz", "blocks-v2.tar.gz"} {
		dir := f.TempDir()
		untar(f, filepath.Join("testdata", archive), filepath.Join(dir, "blocks"))
		dirs = append(dirs, dir)
	}
	for _, dir := range dirs {
		for _, name := range blockFiles(f, dir) {
			data, err := os.ReadFile(filepath.Join(dir, "blocks", name))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, file := range [][]byte{data, withIndexSum(data)} {
			if file == nil {
				continue
			}
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "b-00000001.blk"), file, 0o644); err != nil {
				t.Fatal(err)
			}
			bs, err := block.Open(dir)
			if err != nil {
				continue
			}
			bs.Each(func(key SeriesKey, _ block.Agg) {
				_ = bs.EachPoint(key, math.MinInt64, 0, func(Point) {})
				_ = bs.EachGap(key, math.MinInt64, 0, func(time.Duration) {})
				for l, period := range storage.RollupPeriods {
					_ = bs.EachClosedBucket(key, l, period, -1<<62, 0, func(Bucket) {})
				}
				if n := bs.PointsIn(key, math.MinInt64, 0); n > 4*len(file) {
					t.Fatalf("a file of %d bytes claims %d points for %v", len(file), n, key)
				}
			})
			if err := bs.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// withIndexSum is a copy of a block file whose footer's index checksum is
// recomputed over the index the footer locates; nil when the footer does
// not locate one inside the file.
func withIndexSum(data []byte) []byte {
	const footer = 4 + 4 + 8 + 4 // index crc, index length, index offset, trailer
	if len(data) < 8+footer {
		return nil
	}
	end := len(data) - footer
	n, off := binary.LittleEndian.Uint32(data[end+4:]), binary.LittleEndian.Uint64(data[end+8:])
	if off > uint64(len(data)) || uint64(n) > uint64(len(data))-off {
		return nil
	}
	out := slices.Clone(data)
	binary.LittleEndian.PutUint32(out[end:], crc32.Checksum(out[off:off+uint64(n)], storage.Castagnoli))
	return out
}
