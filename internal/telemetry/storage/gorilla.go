package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"time"
)

// This file holds the chunk codecs of the block layer.
//
// Raw points use the Gorilla encoding (Pelkonen et al., "Gorilla: a fast,
// scalable, in-memory time series database", VLDB 2015), adapted to
// nanosecond timestamps: delta-of-delta timestamps in widening bit
// buckets, and XOR-compressed values that reuse the previous sample's
// meaningful-bit window when it still fits. A steady poller (constant
// interval, slowly moving value) costs ~1–2 bits per timestamp and a few
// bits per value — against 16 bytes per raw point.
//
// Rollup buckets use the same two column codecs. Block format v1 stored
// them as varints and four raw float64 words, on the premise that buckets
// are too sparse to be worth compressing. They are not: a 1 s bucket is
// 20× sparser than the 50 ms points it summarises but was about 30× wider
// than a compressed point, so the ladder outweighed the points. A bucket's
// starts are as regular as a poller's timestamps, its counts barely move,
// and its four statistics move as slowly as the signal. So a bucket chunk
// is six columns, start and count by delta-of-delta and min, max, sum and
// last by XOR, interleaved bucket by bucket as a point chunk interleaves
// its two (Thanos keeps its downsampled aggregates the same way, one XOR
// chunk each). DecodeBucketsV1 still reads the v1 chunks.
//
// Gap markers are rare, so they stay a plain byte-aligned varint chunk.

// dod is a delta-of-delta integer column: a value costs the change in its
// step from the previous one, one bit while the step holds.
type dod struct{ prev, delta int64 }

// putFirst writes a column's first value as a raw 64-bit word; a column
// that skips it codes its first value from zero.
func (c *dod) putFirst(w *bitWriter, v int64) {
	w.writeBits(uint64(v), 64)
	c.prev = v
}

func (c *dod) put(w *bitWriter, v int64) {
	delta := v - c.prev
	dd := delta - c.delta
	c.prev, c.delta = v, delta
	switch {
	case dd == 0:
		w.writeBit(0)
	case dd >= -(1<<15) && dd < 1<<15:
		w.writeBits(0b10<<16|uint64(dd)&(1<<16-1), 2+16)
	case dd >= -(1<<31) && dd < 1<<31:
		w.writeBits(0b110<<32|uint64(dd)&(1<<32-1), 3+32)
	default:
		w.writeBits(0b111, 3)
		w.writeBits(uint64(dd), 64)
	}
}

func (c *dod) getFirst(r *bitReader) int64 {
	c.prev = int64(r.readBits(64))
	return c.prev
}

func (c *dod) get(r *bitReader) int64 {
	var dd int64
	if r.readBit() == 1 {
		switch {
		case r.readBit() == 0:
			dd = int64(int16(r.readBits(16)))
		case r.readBit() == 0:
			dd = int64(int32(r.readBits(32)))
		default:
			dd = int64(r.readBits(64))
		}
	}
	c.delta += dd
	c.prev += c.delta
	return c.prev
}

// xor is a Gorilla float column over IEEE 754 bit patterns: a value costs
// its XOR with the previous one, one bit when equal, else the XOR's
// meaningful bits, in the previous window when they still fit in it.
type xor struct {
	prev      uint64
	lead, sig uint // the meaningful-bit window; set when sig > 0
}

func (c *xor) putFirst(w *bitWriter, v uint64) {
	w.writeBits(v, 64)
	c.prev = v
}

func (c *xor) put(w *bitWriter, v uint64) {
	x := v ^ c.prev
	c.prev = v
	if x == 0 {
		w.writeBit(0)
		return
	}
	lead := min(uint(bits.LeadingZeros64(x)), 31) // 5-bit field; extra leading zeros ride in the payload
	trail := uint(bits.TrailingZeros64(x))
	sig := 64 - lead - trail
	if c.sig > 0 && lead >= c.lead && lead+sig <= c.lead+c.sig {
		// The previous window still covers every meaningful bit.
		w.writeBits(0b10, 2)
		w.writeBits(x>>(64-c.lead-c.sig), c.sig)
		return
	}
	// 11, the 5-bit lead, then sig in 1..64 stored as 0..63.
	w.writeBits(0b11<<11|uint64(lead)<<6|uint64(sig-1), 2+5+6)
	w.writeBits(x>>trail, sig)
	c.lead, c.sig = lead, sig
}

func (c *xor) getFirst(r *bitReader) uint64 {
	c.prev = r.readBits(64)
	return c.prev
}

func (c *xor) get(r *bitReader) uint64 {
	if r.readBit() == 0 {
		return c.prev
	}
	if r.readBit() == 1 {
		hdr := r.readBits(5 + 6)
		c.lead, c.sig = uint(hdr>>6), uint(hdr&63)+1
		if c.lead+c.sig > 64 {
			r.fail(fmt.Errorf("storage: XOR window of %d bits after %d leading zeros", c.sig, c.lead))
		}
	} else if c.sig == 0 {
		r.fail(errors.New("storage: chunk reuses an unset XOR window"))
	}
	c.prev ^= r.readBits(c.sig) << (64 - c.lead - c.sig)
	return c.prev
}

// EncodePoints appends the Gorilla-compressed chunk for pts to dst and
// returns the extended slice. Points must be in ingest order
// (non-decreasing T). The chunk is self-contained; DecodePoints needs
// only the byte slice and the point count.
func EncodePoints(dst []byte, pts []Point) []byte {
	if len(pts) == 0 {
		return dst
	}
	w := bitWriter{buf: dst}
	var t dod
	var v xor
	t.putFirst(&w, int64(pts[0].T))
	v.putFirst(&w, math.Float64bits(pts[0].V))
	for _, p := range pts[1:] {
		t.put(&w, int64(p.T))
		v.put(&w, math.Float64bits(p.V))
	}
	return w.bytes()
}

// DecodePoints appends the n points of a chunk produced by EncodePoints
// to dst and returns the extended slice.
func DecodePoints(dst []Point, chunk []byte, n int) ([]Point, error) {
	r := bitReader{buf: chunk}
	var t dod
	var v xor
	for i := 0; i < n; i++ {
		var p Point
		if i == 0 {
			p = Point{T: time.Duration(t.getFirst(&r)), V: math.Float64frombits(v.getFirst(&r))}
		} else {
			p = Point{T: time.Duration(t.get(&r)), V: math.Float64frombits(v.get(&r))}
		}
		if r.err != nil {
			return dst, r.err
		}
		dst = append(dst, p)
	}
	return dst, nil
}

// bucketCols is the column state of a bucket chunk, one per field.
type bucketCols struct {
	start, count        dod
	min, max, sum, last xor
}

// EncodeBuckets appends the chunk for a run of sealed rollup buckets: six
// Gorilla columns, interleaved bucket by bucket. The first start and the
// first statistics are raw words; counts are coded from zero.
func EncodeBuckets(dst []byte, bs []Bucket) []byte {
	if len(bs) == 0 {
		return dst
	}
	w := bitWriter{buf: dst}
	var c bucketCols
	b := bs[0]
	c.start.putFirst(&w, int64(b.Start))
	c.count.put(&w, int64(b.Count))
	c.min.putFirst(&w, math.Float64bits(b.Min))
	c.max.putFirst(&w, math.Float64bits(b.Max))
	c.sum.putFirst(&w, math.Float64bits(b.Sum))
	c.last.putFirst(&w, math.Float64bits(b.Last))
	for _, b := range bs[1:] {
		c.start.put(&w, int64(b.Start))
		c.count.put(&w, int64(b.Count))
		c.min.put(&w, math.Float64bits(b.Min))
		c.max.put(&w, math.Float64bits(b.Max))
		c.sum.put(&w, math.Float64bits(b.Sum))
		c.last.put(&w, math.Float64bits(b.Last))
	}
	return w.bytes()
}

// DecodeBuckets appends the n buckets of an EncodeBuckets chunk to dst.
func DecodeBuckets(dst []Bucket, chunk []byte, n int) ([]Bucket, error) {
	r := bitReader{buf: chunk}
	var c bucketCols
	for i := 0; i < n; i++ {
		var b Bucket
		if i == 0 {
			b = Bucket{
				Start: time.Duration(c.start.getFirst(&r)),
				Count: int(c.count.get(&r)),
				Min:   math.Float64frombits(c.min.getFirst(&r)),
				Max:   math.Float64frombits(c.max.getFirst(&r)),
				Sum:   math.Float64frombits(c.sum.getFirst(&r)),
				Last:  math.Float64frombits(c.last.getFirst(&r)),
			}
		} else {
			b = Bucket{
				Start: time.Duration(c.start.get(&r)),
				Count: int(c.count.get(&r)),
				Min:   math.Float64frombits(c.min.get(&r)),
				Max:   math.Float64frombits(c.max.get(&r)),
				Sum:   math.Float64frombits(c.sum.get(&r)),
				Last:  math.Float64frombits(c.last.get(&r)),
			}
		}
		if r.err != nil {
			return dst, r.err
		}
		dst = append(dst, b)
	}
	return dst, nil
}

// DecodeBucketsV1 appends the n buckets of a block format v1 bucket chunk
// to dst: delta-encoded varint starts, varint counts, raw float64
// statistics.
func DecodeBucketsV1(dst []Bucket, chunk []byte, n int) ([]Bucket, error) {
	off := 0
	prev := int64(0)
	for i := 0; i < n; i++ {
		d, sz := binary.Varint(chunk[off:])
		if sz <= 0 {
			return dst, fmt.Errorf("storage: bucket chunk truncated at bucket %d", i)
		}
		off += sz
		prev += d
		cnt, sz := binary.Uvarint(chunk[off:])
		if sz <= 0 {
			return dst, fmt.Errorf("storage: bucket chunk truncated at bucket %d", i)
		}
		off += sz
		if off+32 > len(chunk) {
			return dst, fmt.Errorf("storage: bucket chunk truncated at bucket %d", i)
		}
		b := Bucket{
			Start: time.Duration(prev),
			Count: int(cnt),
			Min:   math.Float64frombits(binary.LittleEndian.Uint64(chunk[off:])),
			Max:   math.Float64frombits(binary.LittleEndian.Uint64(chunk[off+8:])),
			Sum:   math.Float64frombits(binary.LittleEndian.Uint64(chunk[off+16:])),
			Last:  math.Float64frombits(binary.LittleEndian.Uint64(chunk[off+24:])),
		}
		off += 32
		dst = append(dst, b)
	}
	return dst, nil
}

// EncodeGaps appends the chunk for a run of gap markers: the first
// instant as a signed varint, then unsigned varint deltas (gap times are
// non-decreasing per series).
func EncodeGaps(dst []byte, gaps []time.Duration) []byte {
	prev := int64(0)
	for i, g := range gaps {
		if i == 0 {
			dst = binary.AppendVarint(dst, int64(g))
		} else {
			dst = binary.AppendUvarint(dst, uint64(int64(g)-prev))
		}
		prev = int64(g)
	}
	return dst
}

// DecodeGaps appends the n gap markers of an EncodeGaps chunk to dst.
func DecodeGaps(dst []time.Duration, chunk []byte, n int) ([]time.Duration, error) {
	if n <= 0 {
		return dst, nil
	}
	first, sz := binary.Varint(chunk)
	if sz <= 0 {
		return dst, fmt.Errorf("storage: gap chunk truncated at gap 0")
	}
	off := sz
	prev := first
	dst = append(dst, time.Duration(first))
	for i := 1; i < n; i++ {
		d, sz := binary.Uvarint(chunk[off:])
		if sz <= 0 {
			return dst, fmt.Errorf("storage: gap chunk truncated at gap %d", i)
		}
		off += sz
		prev += int64(d)
		dst = append(dst, time.Duration(prev))
	}
	return dst, nil
}
