package telemetry

import (
	"archive/tar"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
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
// costs per sample on a poller's stream, that format v1 directories still
// open and answer as they did, and that a corrupt chunk is never served.

// TestBlockBytesPerSample seals a stream shaped like bench's ingest-durable
// one (16 series at a 50 ms cadence, a slow quarter-watt triangle plus two
// bits of noise, a failed poll every 997th slot) through Open and Flush,
// and holds the block bytes per ingested sample, rollup ladder and gap
// chunks included, to at most 2.0. Format v1, whose buckets were raw
// words, read about 3.5 here.
func TestBlockBytesPerSample(t *testing.T) {
	const series, epochs, cadence = 16, 12 << 10, 50 * time.Millisecond
	st, err := Open(t.TempDir(), Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
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
				if err := st.IngestGap(key, "W", at); err != nil {
					t.Fatal(err)
				}
				continue
			}
			p := (j + 25*k) % 400
			if p >= 200 {
				p = 400 - p
			}
			v := 200 + 12.5*float64(k) + float64(p)*0.25 + float64(rng.Intn(4))*0.25
			if err := st.Ingest(key, "W", at, v); err != nil {
				t.Fatal(err)
			}
			samples++
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	perSample := float64(st.StorageStats().BlockBytes) / float64(samples)
	t.Logf("%d samples sealed into %d blocks: %.3f B per sample", samples, st.StorageStats().Blocks, perSample)
	if perSample > 2.0 {
		t.Fatalf("blocks hold %.3f B per sample, want at most 2.0", perSample)
	}
}

// TestFlippedChunkByteIsNeverServed seals one series into one block, flips
// a byte of its point chunk (the low byte of the chunk's first value, so a
// decoder that trusted it would serve every value off by that flip, a
// reading nobody measured) and reopens: a raw query must serve no value
// that was never ingested, and count the chunk in ReadErrors.
func TestFlippedChunkByteIsNeverServed(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 1}
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	key := SeriesKey{Node: "c000-001", Backend: "MSR", Domain: "Total Power"}
	ingested := map[Point]bool{}
	for i := 0; i < 1000; i++ {
		p := Point{T: time.Duration(i) * 50 * time.Millisecond, V: 200 + float64(i%40)*0.25}
		if err := st.Ingest(key, "W", p.T, p.V); err != nil {
			t.Fatal(err)
		}
		ingested[p] = true
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if n := st.StorageStats().Blocks; n != 1 {
		t.Fatalf("sealed %d blocks, want 1", n)
	}
	// The block's first chunk is the series' points, after the 8-byte
	// header; a point chunk starts with the raw first timestamp and value.
	path := filepath.Join(dir, "blocks", "b-00000001.blk")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[8+8+7] ^= 0xff
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

// TestBlockFormatV1StaysReadable holds format v2 to the bytes format v1
// wrote. testdata/blocks-v1.tar.gz is the blocks/ directory
// TestBlockBytesOnDiskPinned's workload wrote in format v1, whose digest
// that test pinned as v1Digest. Run at format v2, the workload must write
// the same files, each holding, series by series, the same points, gap
// markers and closed buckets per level under the same persisted index
// ranges, instants and tails; and the store opened on either directory
// alone must answer every resolution the same.
func TestBlockFormatV1StaysReadable(t *testing.T) {
	v1 := t.TempDir()
	untar(t, filepath.Join("testdata", "blocks-v1.tar.gz"), filepath.Join(v1, "blocks"))
	if got := blocksDigest(t, v1); got != v1Digest {
		t.Fatalf("v1 fixture digest = %s, want %s", got, v1Digest)
	}
	v2 := pinnedWorkload(t)
	names1, names2 := blockFiles(t, v1), blockFiles(t, v2)
	if !slices.Equal(names1, names2) {
		t.Fatalf("v2 wrote files %v, v1 wrote %v", names2, names1)
	}
	scratch := t.TempDir()
	for _, name := range names1 {
		d1 := dumpBlockFile(t, scratch, filepath.Join(v1, "blocks", name))
		d2 := dumpBlockFile(t, scratch, filepath.Join(v2, "blocks", name))
		if d1 != d2 {
			l1, l2 := strings.Split(d1, "\n"), strings.Split(d2, "\n")
			for i := range min(len(l1), len(l2)) {
				if l1[i] != l2[i] {
					t.Fatalf("%s line %d: v2 holds %q, v1 %q", name, i, l2[i], l1[i])
				}
			}
			t.Fatalf("%s: v2 holds %d lines, v1 %d", name, len(l2), len(l1))
		}
	}

	// The blocks alone: the workload's unsealed journal tail goes.
	if err := os.RemoveAll(filepath.Join(v2, "wal")); err != nil {
		t.Fatal(err)
	}
	type answer struct {
		frames map[Resolution][]Frame
		top    []NodePower
		total  float64
	}
	var answers [2]answer
	for i, dir := range []string{v1, v2} {
		st, err := Open(dir, pinnedWorkloadOpts)
		if err != nil {
			t.Fatal(err)
		}
		a := &answers[i]
		a.frames, a.top, a.total = allQueries(st)
		stats := st.StorageStats()
		st.Close()
		if stats.ReadErrors != 0 || stats.Blocks != len(names1) {
			t.Fatalf("%s: %d read errors over %d blocks, want 0 over %d", dir, stats.ReadErrors, stats.Blocks, len(names1))
		}
		for res, frames := range a.frames {
			if len(frames) != 5 || len(frames[0].Points) == 0 {
				t.Fatalf("%s: %s answered %d frames, the first with %d points", dir, res, len(frames), len(frames[0].Points))
			}
		}
	}
	if !reflect.DeepEqual(answers[0], answers[1]) {
		t.Fatal("the store answers differently over the v2 blocks than over the v1 ones")
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
// the file's size. Seeds: the files of TestBlockBytesOnDiskPinned's
// workload and of the v1 fixture.
func FuzzOpenBlock(f *testing.F) {
	v1 := f.TempDir()
	untar(f, filepath.Join("testdata", "blocks-v1.tar.gz"), filepath.Join(v1, "blocks"))
	for _, dir := range []string{pinnedWorkload(f), v1} {
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
				_ = bs.PointsIn(key, math.MinInt64, 0)
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
