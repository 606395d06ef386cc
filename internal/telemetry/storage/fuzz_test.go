package storage

import (
	"encoding/binary"
	"math"
	"testing"
	"time"
)

// The chunk decoders read bytes off disk and take their entry count from
// an on-disk index. The fuzzers hold them, on any chunk and any n, to
// never panic and never return more than n entries; and they read the
// input as entries to round-trip bit-exactly through the encoder, in
// order or not (the codecs' arithmetic wraps). The seed corpus under
// testdata/fuzz holds chunks that TestBlockBytesOnDiskPinned's workload
// writes, in format v1 and v2; the seeds added here are hostile values:
// NaN payloads, ±0, infinities and a delta-of-delta that needs 64 bits.

func hostilePoints() []Point {
	return []Point{
		{T: 0, V: math.Copysign(0, -1)},
		{T: 1, V: 0},
		{T: 1<<62 - 1, V: math.Float64frombits(0x7ff8_0000_dead_beef)},
		{T: math.MinInt64, V: math.Inf(-1)},
		{T: math.MaxInt64, V: math.Float64frombits(1)},
		{T: math.MaxInt64, V: math.NaN()},
	}
}

// words cuts b into 8-byte words; a short tail is dropped.
func words(b []byte) []uint64 {
	w := make([]uint64, len(b)/8)
	for i := range w {
		w[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return w
}

func checkCount[T any](t *testing.T, name string, got []T, n int) {
	t.Helper()
	if len(got) > max(n, 0) {
		t.Fatalf("%s returned %d entries for n = %d", name, len(got), n)
	}
}

func FuzzDecodePoints(f *testing.F) {
	pts := hostilePoints()
	f.Add(EncodePoints(nil, pts), len(pts))
	f.Add(EncodePoints(nil, pts), 1<<40)
	f.Fuzz(func(t *testing.T, chunk []byte, n int) {
		got, _ := DecodePoints(nil, chunk, n)
		checkCount(t, "DecodePoints", got, n)

		w := words(chunk)
		pts := make([]Point, len(w)/2)
		for i := range pts {
			pts[i] = Point{T: time.Duration(w[2*i]), V: math.Float64frombits(w[2*i+1])}
		}
		back, err := DecodePoints(nil, EncodePoints(nil, pts), len(pts))
		if err != nil {
			t.Fatalf("round trip of %d points: %v", len(pts), err)
		}
		for i := range pts {
			if back[i].T != pts[i].T || math.Float64bits(back[i].V) != math.Float64bits(pts[i].V) {
				t.Fatalf("point %d came back %v %x, went in %v %x", i,
					back[i].T, math.Float64bits(back[i].V), pts[i].T, math.Float64bits(pts[i].V))
			}
		}
	})
}

// FuzzDecodeBuckets feeds every chunk to both formats' decoders: v1's
// varints and raw words, v2's Gorilla columns.
func FuzzDecodeBuckets(f *testing.F) {
	var bs []Bucket
	for i, p := range hostilePoints() {
		bs = append(bs, Bucket{Start: p.T, Count: 1 - i*i<<20, Min: p.V, Max: -p.V, Sum: float64(i), Last: p.V})
	}
	f.Add(EncodeBuckets(nil, bs), len(bs))
	f.Add(EncodeBuckets(nil, bs), -1)
	f.Fuzz(func(t *testing.T, chunk []byte, n int) {
		got, _ := DecodeBuckets(nil, chunk, n)
		checkCount(t, "DecodeBuckets", got, n)
		got, _ = DecodeBucketsV1(nil, chunk, n)
		checkCount(t, "DecodeBucketsV1", got, n)

		w := words(chunk)
		bs := make([]Bucket, len(w)/6)
		for i := range bs {
			c := w[6*i:]
			bs[i] = Bucket{Start: time.Duration(c[0]), Count: int(c[1]),
				Min: math.Float64frombits(c[2]), Max: math.Float64frombits(c[3]),
				Sum: math.Float64frombits(c[4]), Last: math.Float64frombits(c[5])}
		}
		back, err := DecodeBuckets(nil, EncodeBuckets(nil, bs), len(bs))
		if err != nil {
			t.Fatalf("round trip of %d buckets: %v", len(bs), err)
		}
		for i, b := range bs {
			g := back[i]
			if g.Start != b.Start || g.Count != b.Count || math.Float64bits(g.Min) != math.Float64bits(b.Min) ||
				math.Float64bits(g.Max) != math.Float64bits(b.Max) || math.Float64bits(g.Sum) != math.Float64bits(b.Sum) ||
				math.Float64bits(g.Last) != math.Float64bits(b.Last) {
				t.Fatalf("bucket %d came back %+v, went in %+v", i, g, b)
			}
		}
	})
}

func FuzzDecodeGaps(f *testing.F) {
	gaps := []time.Duration{math.MinInt64, -1, 0, 0, 1 << 62, math.MaxInt64}
	f.Add(EncodeGaps(nil, gaps), len(gaps))
	f.Fuzz(func(t *testing.T, chunk []byte, n int) {
		got, _ := DecodeGaps(nil, chunk, n)
		checkCount(t, "DecodeGaps", got, n)

		w := words(chunk)
		gaps := make([]time.Duration, len(w))
		for i, v := range w {
			gaps[i] = time.Duration(v)
		}
		back, err := DecodeGaps(nil, EncodeGaps(nil, gaps), len(gaps))
		if err != nil {
			t.Fatalf("round trip of %d gaps: %v", len(gaps), err)
		}
		for i := range gaps {
			if back[i] != gaps[i] {
				t.Fatalf("gap %d came back %v, went in %v", i, back[i], gaps[i])
			}
		}
	})
}
