package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
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
// last as float columns, interleaved bucket by bucket as a point chunk
// interleaves its two (Thanos keeps its downsampled aggregates the same
// way, one XOR chunk each). DecodeBucketsV1 still reads the v1 chunks.
//
// Every vendor mechanism hands out an integer count of a unit: NVML and
// the Phi SMC in mW, RAPL in energy units, a 0.25 W reading as 25 cW. An
// XOR column cannot see that structure, so from block format v3 on each
// float column of a chunk picks one of two modes, by a rule on its values
// alone. In scaled mode (after ALP: Afroozeh, Kuffo & Boncz, "ALP:
// Adaptive Lossless floating-Point compression", SIGMOD 2024) every value
// is n/10^e for an integer n, the column stores e, the gcd g of the n,
// and the zigzag deltas of n/g as a Rice code; quarter-watt data is e=2,
// g=25 and deltas of a few units. The writer keeps scaled mode only if the
// reader's own expression (scaledValue) gives back every value bit for
// bit, so −0, NaN payloads, infinities, subnormals and integers past 2^53
// all leave the column in XOR mode and the codec stays lossless. A v3
// chunk opens with its float columns' modes; a v2 chunk has none and
// decodes as a v3 chunk whose every float column is XOR (DecodePointsV2,
// DecodeBucketsV2), through the same decoder.
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

const (
	// maxExp is the largest decimal exponent of a scaled column: 10^22 is
	// the largest power of ten a float64 holds exactly.
	maxExp = 22
	// maxScaled bounds |n| of a scaled value: past 2^53 a float64 no
	// longer holds every integer.
	maxScaled = 1 << 53
	// riceEscape is the longest unary prefix of a Rice code: a delta whose
	// quotient reaches it is written as riceEscape zeros, its bit length
	// in six bits, then its bits.
	riceEscape = 16
)

var pow10 = [maxExp + 1]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// scaledValue is the reader's one expression for a scaled value. The
// writer keeps scaled mode only where it gives back every value bit for
// bit.
func scaledValue(n int64, e uint) float64 { return float64(n) / pow10[e] }

// scaleAt reports the integer n with scaledValue(n, e) == v bit for bit,
// if there is one with |n| < 2^53: v·10^e rounded half away from zero,
// and then checked.
func scaleAt(v float64, e uint) (int64, bool) {
	x := v * pow10[e]
	if !(x > -maxScaled && x < maxScaled) {
		return 0, false // NaN fails too
	}
	n := int64(x) // toward zero, and x − n is exact
	if f := x - float64(n); f >= 0.5 {
		n++
	} else if f <= -0.5 {
		n--
	}
	return n, math.Float64bits(scaledValue(n, e)) == math.Float64bits(v)
}

// scaled is the exact-scale float column: value i is
// scaledValue(g·m_i, e), and the column codes m_0 from zero, then each
// m_i − m_{i−1}, zigzagged, as a Rice code with parameter k.
type scaled struct {
	e    uint    // decimal exponent
	g    int64   // step: the gcd of every n, ≥ 1
	k    uint    // Rice parameter
	prev int64   // m of the previous value
	ns   []int64 // the writer's: every value's n
}

// planScaled finds the scaled column that codes the n values at(0) …
// at(n−1) losslessly, in one pass over them: the smallest exponent at
// which every value is exact (rechecking them all whenever a value forces
// it up), and the gcd of their integers. k is FLAC's estimate for the
// zigzagged deltas, the least k with count·2^k ≥ their sum, which it
// takes as twice the sum of |n_i − n_{i−1}| over g. ok is false when no
// exponent up to maxExp holds every value.
func planScaled(n int, at func(int) float64) (c scaled, ok bool) {
	c.ns = getInts(n)
	var g int64
	var sum uint64 // of |n_i − n_{i−1}|, held under 2^62
	for i := 0; i < n; i++ {
		v := at(i)
		x, exact := scaleAt(v, c.e)
		for !exact {
			if c.e++; c.e > maxExp {
				putInts(c.ns)
				return scaled{}, false
			}
			_, exact = scaleAt(v, c.e)
			g, sum, i = 0, 0, -1
		}
		if i < 0 {
			continue
		}
		c.ns[i] = x
		if i > 0 {
			if x == c.ns[i-1] {
				continue
			}
			sum = min(sum+uint64(max(x-c.ns[i-1], c.ns[i-1]-x)), 1<<62) // each step is under 2^54
		}
		if g == 0 || x%g != 0 {
			g = gcd(g, max(x, -x))
		}
	}
	c.g = max(g, 1) // every value is zero when g is
	for uint64(n-1)<<c.k < 2*(sum/uint64(c.g)) {
		c.k++
	}
	return c, true
}

// intBufs recycles the writer's integer columns: a seal plans a column
// per chunk, and each would otherwise be a fresh allocation.
var intBufs sync.Pool

func getInts(n int) []int64 {
	if p, _ := intBufs.Get().(*[]int64); p != nil && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]int64, n)
}

func putInts(b []int64) { intBufs.Put(&b) }

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// putHeader writes the column's parameters: e in five bits, k in six,
// then g.
func (c *scaled) putHeader(w *bitWriter) {
	w.writeBits(uint64(c.e)<<6|uint64(c.k), 5+6)
	putWide(w, uint64(c.g))
}

func (c *scaled) getHeader(r *bitReader) {
	hdr := r.readBits(5 + 6)
	c.e, c.k = uint(hdr>>6), uint(hdr&63)
	c.g = int64(getWide(r))
	if c.e > maxExp {
		r.fail(fmt.Errorf("storage: scaled column of exponent %d", c.e))
		c.e = 0
	}
}

// putWide writes z as its bit length in six bits, then its bits. z < 2^63.
func putWide(w *bitWriter, z uint64) {
	n := uint(bits.Len64(z))
	w.writeBits(uint64(n), 6)
	w.writeBits(z, n)
}

func getWide(r *bitReader) uint64 { return r.readBits(uint(r.readBits(6))) }

// put writes the column's value i: m_0 as its zigzag by putWide, every
// later one as the Rice code of its zigzagged delta z, z>>k in unary (that
// many zeros, then a one) and then z's low k bits.
func (c *scaled) put(w *bitWriter, i int) {
	m := int64(float64(c.ns[i]) / float64(c.g)) // exact, as g divides n
	z := zigzag(m - c.prev)
	c.prev = m
	q := z >> c.k
	switch {
	case i == 0:
		putWide(w, z)
	case q >= riceEscape:
		w.writeBits(0, riceEscape)
		putWide(w, z)
	case uint(q)+1+c.k <= 64:
		w.writeBits(1<<c.k|z&(1<<c.k-1), uint(q)+1+c.k)
	default:
		w.writeBits(1, uint(q)+1)
		w.writeBits(z, c.k)
	}
}

func (c *scaled) getFirst(r *bitReader) float64 {
	z := getWide(r)
	c.prev = int64(z>>1) ^ -int64(z&1)
	return scaledValue(c.prev*c.g, c.e)
}

func (c *scaled) get(r *bitReader) float64 {
	w := r.peek()
	q := uint(bits.LeadingZeros64(w))
	var z uint64
	switch {
	case q >= riceEscape:
		r.skip(riceEscape)
		z = getWide(r)
	case q+1+c.k <= 64:
		z = uint64(q)<<c.k | w<<(q+1)>>(64-c.k)
		r.skip(q + 1 + c.k)
	default:
		r.skip(q + 1)
		z = uint64(q)<<c.k | r.readBits(c.k)
	}
	c.prev += int64(z>>1) ^ -int64(z&1)
	return scaledValue(c.prev*c.g, c.e)
}

// floatCol is one float column of a chunk: XOR, or scaled when exact.
type floatCol struct {
	x     xor
	s     scaled
	exact bool
}

// plan picks the column's mode from its n values and writes the mode,
// with a scaled column's parameters: a zero bit for XOR, a one for scaled.
func (c *floatCol) plan(w *bitWriter, n int, at func(int) float64, mayScale bool) {
	if mayScale {
		c.s, c.exact = planScaled(n, at)
	}
	if !c.exact {
		w.writeBit(0)
		return
	}
	w.writeBit(1)
	c.s.putHeader(w)
}

// done hands a scaled column's integers back for the next chunk.
func (c *floatCol) done() {
	if c.exact {
		putInts(c.s.ns)
	}
}

// getMode reads what plan wrote.
func (c *floatCol) getMode(r *bitReader) {
	if c.exact = r.readBit() == 1; c.exact {
		c.s.getHeader(r)
	}
}

// put writes value i of the column, v.
func (c *floatCol) put(w *bitWriter, i int, v float64) {
	switch {
	case c.exact:
		c.s.put(w, i)
	case i == 0:
		c.x.putFirst(w, math.Float64bits(v))
	default:
		c.x.put(w, math.Float64bits(v))
	}
}

func (c *floatCol) getFirst(r *bitReader) float64 {
	if c.exact {
		return c.s.getFirst(r)
	}
	return math.Float64frombits(c.x.getFirst(r))
}

func (c *floatCol) get(r *bitReader) float64 {
	if c.exact {
		return c.s.get(r)
	}
	return math.Float64frombits(c.x.get(r))
}

// EncodePoints appends the block format v3 chunk for pts to dst and
// returns the extended slice: the value column's mode, then each point's
// delta-of-delta timestamp and value. Points must be in ingest order
// (non-decreasing T). The chunk is self-contained; DecodePoints needs
// only the byte slice and the point count.
func EncodePoints(dst []byte, pts []Point) []byte { return encodePoints(dst, pts, true) }

// encodePoints is EncodePoints with the value column held to XOR mode
// unless mayScale.
func encodePoints(dst []byte, pts []Point, mayScale bool) []byte {
	if len(pts) == 0 {
		return dst
	}
	w := bitWriter{buf: dst}
	var t dod
	var v floatCol
	v.plan(&w, len(pts), func(i int) float64 { return pts[i].V }, mayScale)
	defer v.done()
	t.putFirst(&w, int64(pts[0].T))
	v.put(&w, 0, pts[0].V)
	for i := 1; i < len(pts); i++ {
		t.put(&w, int64(pts[i].T))
		v.put(&w, i, pts[i].V)
	}
	return w.bytes()
}

// DecodePoints appends the n points of a chunk produced by EncodePoints
// to dst and returns the extended slice.
func DecodePoints(dst []Point, chunk []byte, n int) ([]Point, error) {
	return decodePoints(dst, chunk, n, true)
}

// DecodePointsV2 reads a block format v1 or v2 point chunk: a v3 chunk
// with no mode, its values XOR.
func DecodePointsV2(dst []Point, chunk []byte, n int) ([]Point, error) {
	return decodePoints(dst, chunk, n, false)
}

func decodePoints(dst []Point, chunk []byte, n int, modes bool) ([]Point, error) {
	if n <= 0 {
		return dst, nil
	}
	r := bitReader{buf: chunk}
	var t dod
	var v floatCol
	if modes {
		v.getMode(&r)
	}
	end := len(dst) + n
	p := Point{T: time.Duration(t.getFirst(&r)), V: v.getFirst(&r)}
	for r.err == nil {
		dst = append(dst, p)
		if v.exact {
			dst = v.s.run(dst, &r, &t, end)
		}
		if len(dst) == end {
			return dst, nil
		}
		p.T = time.Duration(t.get(&r))
		if v.exact { // floatCol.get, by hand: an XOR value costs no extra call
			p.V = v.s.get(&r)
		} else {
			p.V = math.Float64frombits(v.x.get(&r))
		}
	}
	return dst, r.err
}

// run is decodePoints' loop for a scaled value column. It appends points
// to dst, up to end, for as long as each is a repeated timestamp step (one
// zero bit) and a Rice code without escape, and at least 9 bytes of chunk
// are left: then both come out of one 64-bit window, with the position in
// a register. The first point that needs more goes to the general readers.
func (c *scaled) run(dst []Point, r *bitReader, t *dod, end int) []Point {
	buf, pos, prev, at := r.buf, r.pos, c.prev, t.prev
	for len(dst) < end {
		i, s := pos>>3, pos&7
		if i+8 >= uint(len(buf)) {
			break
		}
		w := binary.BigEndian.Uint64(buf[i:])<<s | uint64(buf[i+8])>>(8-s)
		q := uint(bits.LeadingZeros64(w << 1)) // the top bit is the timestamp's
		if w>>63 != 0 || q >= riceEscape || q+2+c.k > 64 {
			break
		}
		z := uint64(q)<<c.k | w<<(q+2)>>(64-c.k)
		pos += q + 2 + c.k
		at += t.delta
		prev += int64(z>>1) ^ -int64(z&1)
		dst = append(dst, Point{T: time.Duration(at), V: scaledValue(prev*c.g, c.e)})
	}
	r.pos, c.prev, t.prev = pos, prev, at
	return dst
}

// bucketCols is the column state of a bucket chunk: start and count,
// then min, max, sum and last.
type bucketCols struct {
	start, count dod
	stat         [4]floatCol
}

// stats lists a bucket's statistics in column order.
func stats(b *Bucket) [4]float64 { return [4]float64{b.Min, b.Max, b.Sum, b.Last} }

// EncodeBuckets appends the chunk for a run of sealed rollup buckets: the
// modes of min, max, sum and last, then six columns interleaved bucket by
// bucket. The first start and the first statistics are first values;
// counts are coded from zero.
func EncodeBuckets(dst []byte, bs []Bucket) []byte {
	if len(bs) == 0 {
		return dst
	}
	w := bitWriter{buf: dst}
	var c bucketCols
	for j := range c.stat {
		c.stat[j].plan(&w, len(bs), func(i int) float64 { return stats(&bs[i])[j] }, true)
		defer c.stat[j].done()
	}
	for i := range bs {
		b := &bs[i]
		if i == 0 {
			c.start.putFirst(&w, int64(b.Start))
		} else {
			c.start.put(&w, int64(b.Start))
		}
		c.count.put(&w, int64(b.Count))
		for j, v := range stats(b) {
			c.stat[j].put(&w, i, v)
		}
	}
	return w.bytes()
}

// DecodeBuckets appends the n buckets of an EncodeBuckets chunk to dst.
func DecodeBuckets(dst []Bucket, chunk []byte, n int) ([]Bucket, error) {
	return decodeBuckets(dst, chunk, n, true)
}

// DecodeBucketsV2 reads a block format v2 bucket chunk: a v3 chunk with
// no modes, its statistics XOR.
func DecodeBucketsV2(dst []Bucket, chunk []byte, n int) ([]Bucket, error) {
	return decodeBuckets(dst, chunk, n, false)
}

func decodeBuckets(dst []Bucket, chunk []byte, n int, modes bool) ([]Bucket, error) {
	r := bitReader{buf: chunk}
	var c bucketCols
	if modes && n > 0 {
		for j := range c.stat {
			c.stat[j].getMode(&r)
		}
	}
	for i := 0; i < n; i++ {
		var b Bucket
		if i == 0 {
			b.Start = time.Duration(c.start.getFirst(&r))
		} else {
			b.Start = time.Duration(c.start.get(&r))
		}
		b.Count = int(c.count.get(&r))
		for j, v := range [4]*float64{&b.Min, &b.Max, &b.Sum, &b.Last} {
			if i == 0 {
				*v = c.stat[j].getFirst(&r)
			} else {
				*v = c.stat[j].get(&r)
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
