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
// order or not (the codecs' arithmetic wraps), once as raw bit patterns
// and once as thousandths of an integer, which a scaled column codes. The
// seed corpus under testdata/fuzz holds chunks that
// TestBlockBytesOnDiskPinned's workload writes, in format v1, v2 and v3;
// the seeds added here are hostile values: NaN payloads, ±0, infinities, a
// delta-of-delta that needs 64 bits, and the edges of a scaled column's
// exactness (hostileColumns).

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

// hostileColumns are value columns at the edges of scaled mode: each is
// coded exactly at one decimal exponent (scaled), or falls back to XOR.
func hostileColumns() []struct {
	v      []float64
	scaled bool
} {
	const p53 = 1 << 53
	tenth, fifth := 0.1, 0.2 // float64 sums, not the exact constant 0.3
	return []struct {
		v      []float64
		scaled bool
	}{
		// Exact at e=1 but not at e=2, beside a value that needs e=2.
		{[]float64{0.5, 900719925474099.1, 0.25}, false},
		{[]float64{900719925474099.1, 900719925474099.2}, false},
		{[]float64{tenth + fifth, 0.3, 0.1}, false},
		{[]float64{p53, -p53, p53 + 2}, false},
		{[]float64{p53 - 1, -(p53 - 1), 0}, true},
		{[]float64{0, math.Copysign(0, -1), 0}, false},
		{[]float64{math.SmallestNonzeroFloat64, 0x1p-1022 / 2, 0}, false},
		// Steps near 2^53: a gcd, and deltas of n/g, as wide as they get.
		{[]float64{1e15, 2e15, -3e15, 4.5e15}, true},
		{[]float64{9007199254740991e-7, -9007199254740991e-7, 1e-7}, false},
		{[]float64{1e22, 1e21, 1e-22}, false},
		{[]float64{math.NaN(), 1, 2}, false},
		{[]float64{150.123, 150.125, 149.999, 1e6 + 0.001, -150.123}, true},
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

// millis reads each word as a signed 32-bit count of thousandths.
func millis(w uint64) float64 { return float64(int32(w)) / 1000 }

func FuzzDecodePoints(f *testing.F) {
	pts := hostilePoints()
	f.Add(EncodePoints(nil, pts), len(pts))
	f.Add(EncodePoints(nil, pts), 1<<40)
	for _, col := range hostileColumns() {
		pts := make([]Point, len(col.v))
		for i, v := range col.v {
			pts[i] = Point{T: time.Duration(i) * time.Second, V: v}
		}
		f.Add(EncodePoints(nil, pts), len(pts))
	}
	f.Add(EncodePoints(nil, quarterWatt(64)), 64)
	f.Fuzz(func(t *testing.T, chunk []byte, n int) {
		got, _ := DecodePoints(nil, chunk, n)
		checkCount(t, "DecodePoints", got, n)
		got, _ = DecodePointsV2(nil, chunk, n)
		checkCount(t, "DecodePointsV2", got, n)

		w := words(chunk)
		raw, scaled := make([]Point, len(w)/2), make([]Point, len(w)/2)
		for i := range raw {
			raw[i] = Point{T: time.Duration(w[2*i]), V: math.Float64frombits(w[2*i+1])}
			scaled[i] = Point{T: raw[i].T, V: millis(w[2*i+1])}
		}
		for _, pts := range [][]Point{raw, scaled} {
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
		}
	})
}

// FuzzDecodeBuckets feeds every chunk to all three formats' decoders: v1's
// varints and raw words, v2's Gorilla columns, v3's moded columns.
func FuzzDecodeBuckets(f *testing.F) {
	var bs []Bucket
	for i, p := range hostilePoints() {
		bs = append(bs, Bucket{Start: p.T, Count: 1 - i*i<<20, Min: p.V, Max: -p.V, Sum: float64(i), Last: p.V})
	}
	f.Add(EncodeBuckets(nil, bs), len(bs))
	f.Add(EncodeBuckets(nil, bs), -1)
	for _, col := range hostileColumns() {
		bs := make([]Bucket, len(col.v))
		for i, v := range col.v {
			bs[i] = Bucket{Start: time.Duration(i) * time.Second, Count: i + 1, Min: v, Max: v + 0.25, Sum: 2 * v, Last: -v}
		}
		f.Add(EncodeBuckets(nil, bs), len(bs))
	}
	f.Fuzz(func(t *testing.T, chunk []byte, n int) {
		got, _ := DecodeBuckets(nil, chunk, n)
		checkCount(t, "DecodeBuckets", got, n)
		got, _ = DecodeBucketsV2(nil, chunk, n)
		checkCount(t, "DecodeBucketsV2", got, n)
		got, _ = DecodeBucketsV1(nil, chunk, n)
		checkCount(t, "DecodeBucketsV1", got, n)

		w := words(chunk)
		raw, scaled := make([]Bucket, len(w)/6), make([]Bucket, len(w)/6)
		for i := range raw {
			c := w[6*i:]
			raw[i] = Bucket{Start: time.Duration(c[0]), Count: int(c[1]),
				Min: math.Float64frombits(c[2]), Max: math.Float64frombits(c[3]),
				Sum: math.Float64frombits(c[4]), Last: math.Float64frombits(c[5])}
			scaled[i] = Bucket{Start: raw[i].Start, Count: raw[i].Count,
				Min: millis(c[2]), Max: millis(c[3]), Sum: millis(c[4]), Last: millis(c[5])}
		}
		for _, bs := range [][]Bucket{raw, scaled} {
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
