package storage

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func roundTripPoints(t *testing.T, pts []Point) []byte {
	t.Helper()
	chunk := EncodePoints(nil, pts)
	got, err := DecodePoints(nil, chunk, len(pts))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(pts) {
		t.Fatalf("decoded %d points, want %d", len(got), len(pts))
	}
	for i := range pts {
		if got[i].T != pts[i].T || math.Float64bits(got[i].V) != math.Float64bits(pts[i].V) {
			t.Fatalf("point %d = %+v, want %+v", i, got[i], pts[i])
		}
	}
	return chunk
}

func TestPointsRoundTripRegular(t *testing.T) {
	// A steady poller: constant interval, slowly drifting value — the case
	// Gorilla is built for. Expect heavy compression.
	pts := make([]Point, 2048)
	v := 212.5
	for i := range pts {
		v += float64(i%7)*0.25 - 0.75
		pts[i] = Point{T: time.Duration(i) * 50 * time.Millisecond, V: v}
	}
	chunk := roundTripPoints(t, pts)
	raw := len(pts) * 16
	if len(chunk)*4 > raw {
		t.Errorf("regular stream compressed to %d bytes of %d raw (want at least 4x)", len(chunk), raw)
	}
}

func TestPointsRoundTripAdversarial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := make([]Point, 1000)
	tm := int64(0)
	for i := range pts {
		// Irregular timing incl. repeated instants, and hostile values:
		// NaN payloads, infinities, denormals, sign flips.
		if rng.Intn(4) != 0 {
			tm += rng.Int63n(5e9)
		}
		var v float64
		switch rng.Intn(6) {
		case 0:
			v = math.NaN()
		case 1:
			v = math.Inf(1 - 2*rng.Intn(2))
		case 2:
			v = math.Float64frombits(rng.Uint64())
		case 3:
			v = 0
		default:
			v = rng.NormFloat64() * 1e6
		}
		pts[i] = Point{T: time.Duration(tm), V: v}
	}
	roundTripPoints(t, pts)
}

func TestPointsRoundTripTiny(t *testing.T) {
	roundTripPoints(t, nil)
	roundTripPoints(t, []Point{{T: 5 * time.Second, V: -12.75}})
	roundTripPoints(t, []Point{{T: 0, V: 0}, {T: 0, V: 0}})
	// Huge delta-of-delta exercising the 64-bit bucket.
	roundTripPoints(t, []Point{{T: 0, V: 1}, {T: 1, V: 2}, {T: 1<<62 - 1, V: 3}})
}

func TestPointsDecodeTruncated(t *testing.T) {
	pts := []Point{{T: 0, V: 1}, {T: time.Second, V: 2}, {T: 2 * time.Second, V: 3}}
	chunk := EncodePoints(nil, pts)
	if _, err := DecodePoints(nil, chunk[:len(chunk)-1], len(pts)); err == nil {
		// Truncating one byte may still leave enough padding bits; cutting
		// harder must fail.
		if _, err := DecodePoints(nil, chunk[:4], len(pts)); err == nil {
			t.Fatal("decode of a truncated chunk succeeded")
		}
	}
}

func TestBucketsRoundTrip(t *testing.T) {
	var bs []Bucket
	for i := 0; i < 500; i++ {
		bs = append(bs, Bucket{
			Start: time.Duration(i) * time.Second,
			Count: i%11 + 1,
			Min:   -float64(i) * 0.5,
			Max:   float64(i) * 1.5,
			Sum:   float64(i) * 3.25,
			Last:  float64(i),
		})
	}
	chunk := EncodeBuckets(nil, bs)
	got, err := DecodeBuckets(nil, chunk, len(bs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range bs {
		if got[i] != bs[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, got[i], bs[i])
		}
	}
	if _, err := DecodeBuckets(nil, chunk[:10], len(bs)); err == nil {
		t.Fatal("decode of a truncated bucket chunk succeeded")
	}
}

func TestGapsRoundTrip(t *testing.T) {
	var gaps []time.Duration
	tm := time.Duration(0)
	for i := 0; i < 300; i++ {
		if i%5 != 0 {
			tm += time.Duration(i) * time.Millisecond
		}
		gaps = append(gaps, tm)
	}
	chunk := EncodeGaps(nil, gaps)
	got, err := DecodeGaps(nil, chunk, len(gaps))
	if err != nil {
		t.Fatal(err)
	}
	for i := range gaps {
		if got[i] != gaps[i] {
			t.Fatalf("gap %d = %v, want %v", i, got[i], gaps[i])
		}
	}
	if _, err := DecodeGaps(nil, chunk[:1], len(gaps)); err == nil {
		t.Fatal("decode of a truncated gap chunk succeeded")
	}
}

func TestKeyHashDistinguishesFieldBoundaries(t *testing.T) {
	a := SeriesKey{Node: "ab", Backend: "c", Domain: "d"}
	b := SeriesKey{Node: "a", Backend: "bc", Domain: "d"}
	if a.Hash() == b.Hash() {
		t.Fatal("field boundaries not separated in hash")
	}
}

// quarterWatt is a poller's stream of n points: 50 ms apart, a slow
// triangle plus two bits of noise in quarter-watt steps, the shape bench's
// write stream has.
func quarterWatt(n int) []Point {
	rng := rand.New(rand.NewSource(43))
	pts := make([]Point, n)
	for i := range pts {
		p := i % 400
		if p >= 200 {
			p = 400 - p
		}
		pts[i] = Point{T: time.Duration(i+1) * 50 * time.Millisecond, V: 200 + float64(p)*0.25 + float64(rng.Intn(4))*0.25}
	}
	return pts
}

func benchmarkDecode(b *testing.B, chunk []byte, n int) {
	dst := make([]Point, 0, n)
	b.SetBytes(int64(n))
	for i := 0; i < b.N; i++ {
		var err error
		if dst, err = DecodePoints(dst[:0], chunk, n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeScaled and BenchmarkDecodeXOR decode the same 4096
// quarter-watt points, the one chunk's values in scaled mode and the
// other's held to XOR.
func BenchmarkDecodeScaled(b *testing.B) {
	pts := quarterWatt(4096)
	benchmarkDecode(b, encodePoints(nil, pts, true), len(pts))
}

func BenchmarkDecodeXOR(b *testing.B) {
	pts := quarterWatt(4096)
	benchmarkDecode(b, encodePoints(nil, pts, false), len(pts))
}

func BenchmarkEncodeScaled(b *testing.B) {
	pts := quarterWatt(4096)
	var chunk []byte
	for i := 0; i < b.N; i++ {
		chunk = encodePoints(chunk[:0], pts, true)
	}
}

func BenchmarkEncodeXOR(b *testing.B) {
	pts := quarterWatt(4096)
	var chunk []byte
	for i := 0; i < b.N; i++ {
		chunk = encodePoints(chunk[:0], pts, false)
	}
}

// TestScaledModeIsExactOrAbsent round-trips the hostile columns, as point
// values and as bucket statistics, bit for bit, and holds the value
// column's mode (a point chunk's first bit) to the rule: scaled where one
// exponent holds every value as an integer under 2^53, else XOR.
func TestScaledModeIsExactOrAbsent(t *testing.T) {
	for i, col := range hostileColumns() {
		pts := make([]Point, len(col.v))
		bs := make([]Bucket, len(col.v))
		for j, v := range col.v {
			pts[j] = Point{T: time.Duration(j) * time.Second, V: v}
			bs[j] = Bucket{Start: pts[j].T, Count: 1, Min: v, Max: v, Sum: v, Last: v}
		}
		chunk := roundTripPoints(t, pts)
		if scaled := chunk[0]>>7 == 1; scaled != col.scaled {
			t.Errorf("column %d %v: scaled mode %v, want %v", i, col.v, scaled, col.scaled)
		}
		got, err := DecodeBuckets(nil, EncodeBuckets(nil, bs), len(bs))
		if err != nil {
			t.Fatalf("column %d: %v", i, err)
		}
		for j, v := range col.v {
			for _, s := range stats(&got[j]) {
				if math.Float64bits(s) != math.Float64bits(v) {
					t.Fatalf("column %d bucket %d came back %+v, went in %v", i, j, got[j], v)
				}
			}
		}
	}
	if chunk := EncodePoints(nil, quarterWatt(4096)); chunk[0]>>7 != 1 || len(chunk) > 4096*6/8 {
		t.Errorf("quarter-watt points: %d bytes, scaled mode %v; want scaled, at most 6 bits a point", len(chunk), chunk[0]>>7 == 1)
	}
}
