package httpapi

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"time"

	"envmon/internal/telemetry"
)

// The /query document's codec. A history reply is ~10k samples and the
// reflection-driven encoding/json spends more time on it than the store
// does answering, on both ends of the wire, so QueryResult has a
// hand-written encoder and decoder beside its type. Neither defines a
// format: AppendJSON writes byte for byte what json.NewEncoder(w).Encode
// writes, and DecodeQueryResult returns what json.Unmarshal returns. A
// frame is columns, "t_ns" and "v" and a rollup's "min", "max", "last" and
// "count"; the walk reads them by key, and every array is omitempty, so an
// empty window spells none of them and no array is ever null. The columns
// are the store's own (telemetry.Store.Frames fills them in buildFrame and
// the handler passes them on), so a raw sample goes from the ring to the
// socket as one time and one value. Numbers are written eight digits at a
// time (appendInt, appendShortDecimal), byte for byte as strconv writes
// them.
// encoding/json stays as the decoder's fallback for every document that
// is not in the encoder's own shape, as the encoder of the two parts that
// are rare and small (a string needing escapes, the degraded section),
// and as the reference the tests compare both directions against.
//
// The decoder's pass over a body has a second result, for whoever passes
// a document on instead of reading it (envfedd): SplitQueryResult checks
// every token as DecodeQueryResult does and returns each frame as the
// bytes it arrived in, under the series key a merge orders by
// (WireFrame), and WireResult.AppendJSON writes such frames back out.
// What was checked but not decoded has AppendJSON's shape — its keys,
// their order, no whitespace, plain strings — and numbers as the sender
// spelled them, which from AppendJSON is the one way it spells them; it
// decodes to exactly what a decode of the whole body would have held,
// and nothing is passed on that DecodeQueryResult would have refused.

// AppendJSON appends the document to dst exactly as
// json.NewEncoder(w).Encode(r) writes it, trailing newline included. It
// fails, as encoding/json does, on a value JSON cannot carry (NaN, ±Inf),
// naming the series and the sample.
func (r QueryResult) AppendJSON(dst []byte) ([]byte, error) {
	start := len(dst)
	// Room for the typical spelling up front: append would reallocate a
	// cold buffer some twenty times on the way to a history reply.
	size := 128
	for i := range r.Frames {
		f := &r.Frames[i]
		size += 128 + len(f.Node) + len(f.Backend) + len(f.Domain) + len(f.Unit) + len(f.Resolution) +
			24*(len(f.TNS)+len(f.V)) + 20*len(f.GapsNS)
	}
	dst = slices.Grow(dst, size)
	dst = append(dst, `{"frames":`...)
	if r.Frames == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range r.Frames {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = appendFrame(dst, &r.Frames[i]); err != nil {
				return dst[:start], err
			}
		}
		dst = append(dst, ']')
	}
	return appendTail(dst, start, r.SimNowNS, r.NewestNS, r.Degraded)
}

// appendTail closes a document whose frames are written: the freshness
// metadata, the degraded section, the brace and the newline. On error
// dst is cut back to start.
func appendTail(dst []byte, start int, simNowNS, newestNS int64, degraded *Degraded) ([]byte, error) {
	if simNowNS != 0 {
		dst = append(dst, `,"sim_now_ns":`...)
		dst = appendInt(dst, simNowNS)
	}
	if newestNS != 0 {
		dst = append(dst, `,"newest_ns":`...)
		dst = appendInt(dst, newestNS)
	}
	if degraded != nil {
		sub, err := json.Marshal(degraded)
		if err != nil {
			return dst[:start], err
		}
		dst = append(dst, `,"degraded":`...)
		dst = append(dst, sub...)
	}
	return append(dst, "}\n"...), nil
}

func appendFrame(dst []byte, f *Frame) ([]byte, error) {
	dst = appendString(append(dst, `{"node":`...), f.Node)
	dst = appendString(append(dst, `,"backend":`...), f.Backend)
	dst = appendString(append(dst, `,"domain":`...), f.Domain)
	dst = appendString(append(dst, `,"unit":`...), f.Unit)
	dst = appendString(append(dst, `,"resolution":`...), f.Resolution)
	if f.Reduced != nil {
		if !finite(*f.Reduced) {
			return dst, fmt.Errorf("httpapi: series %s/%s/%s: reduced value %v is not representable in JSON",
				f.Node, f.Backend, f.Domain, *f.Reduced)
		}
		dst = appendFloat(append(dst, `,"reduced":`...), *f.Reduced)
	}
	var b Buckets
	if f.Buckets != nil {
		b = *f.Buckets
	}
	for _, col := range [...][]float64{f.V, b.Min, b.Max, b.Last} {
		if i := slices.IndexFunc(col, func(v float64) bool { return !finite(v) }); i >= 0 {
			var t time.Duration
			if i < len(f.TNS) {
				t = f.TNS[i]
			}
			return dst, fmt.Errorf("httpapi: series %s/%s/%s at t_ns=%d: value %v is not representable in JSON",
				f.Node, f.Backend, f.Domain, t, col[i])
		}
	}
	dst = appendArray(dst, `,"t_ns":[`, f.TNS, appendDuration)
	dst = appendArray(dst, `,"v":[`, f.V, appendFloat)
	dst = appendArray(dst, `,"min":[`, b.Min, appendFloat)
	dst = appendArray(dst, `,"max":[`, b.Max, appendFloat)
	dst = appendArray(dst, `,"last":[`, b.Last, appendFloat)
	dst = appendArray(dst, `,"count":[`, b.Count, appendCount)
	dst = appendArray(dst, `,"gaps_ns":[`, f.GapsNS, appendDuration)
	return append(dst, '}'), nil
}

// appendArray appends key, which opens the array, and xs in it, or nothing
// when there are no xs: every array of a frame is omitempty.
func appendArray[T any](dst []byte, key string, xs []T, appendX func([]byte, T) []byte) []byte {
	if len(xs) == 0 {
		return dst
	}
	dst = append(dst, key...)
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendX(dst, x)
	}
	return append(dst, ']')
}

func appendDuration(dst []byte, d time.Duration) []byte { return appendInt(dst, int64(d)) }

func appendCount(dst []byte, n int) []byte { return appendInt(dst, int64(n)) }

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// appendInt appends x in decimal, byte for byte as strconv.AppendInt(dst,
// x, 10) does, eight digits at a time: the magnitude is cut into groups of
// eight at 10^8 (a constant division), and each group is turned into
// ASCII inside one uint64 (digits8) and stored with one write.
func appendInt(dst []byte, x int64) []byte {
	u := uint64(x)
	if x < 0 {
		dst = append(dst, '-')
		u = -u // MinInt64's magnitude, 1<<63, is a uint64
	}
	return appendUint(dst, u)
}

func appendUint(dst []byte, u uint64) []byte {
	if u < 1e8 {
		return appendLeading(dst, u)
	}
	hi, lo := u/1e8, u%1e8
	if hi < 1e8 {
		dst = appendLeading(dst, hi)
	} else { // u < 2^64 < 10^20, so hi/1e8 < 10^4
		dst = append8(appendLeading(dst, hi/1e8), hi%1e8)
	}
	return append8(dst, lo)
}

// digits8 spells n < 10^8 as eight decimal digits, leading zeros
// included, one digit value (0–9, not yet ASCII) per byte and the most
// significant in the lowest byte, so that a little-endian store writes
// them in reading order. Each step halves the width of every lane at
// once: n becomes two 4-digit lanes of 32 bits, then four 2-digit lanes
// of 16, then eight digits of 8. Dividing a lane by 100 or by 10 is a
// multiply and a shift, exact over the lane's range (10486/2^20 for
// x < 10^4, 103/2^10 for x < 10^2), and no lane's product carries into
// the lane above it.
func digits8(n uint64) uint64 {
	v := n/1e4 | n%1e4<<32
	q := v * 10486 >> 20 & 0x0000007f_0000007f
	v = q | (v-q*100)<<16
	q = v * 103 >> 10 & 0x000f_000f_000f_000f
	return q | (v-q*10)<<8
}

// ascii turns digits8's digit values into their ASCII spelling.
const ascii = 0x30303030_30303030

// append8 appends n < 10^8 as exactly eight digits.
func append8(dst []byte, n uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, digits8(n)|ascii)
}

// appendLeading appends n < 10^8 without leading zeros: a zero digit is a
// zero byte of digits8's word and the leading ones are its low bytes, so
// they are shifted out, and the bytes shifted in are written and cut off.
func appendLeading(dst []byte, n uint64) []byte {
	v := digits8(n)
	skip := min(bits.TrailingZeros64(v)/8, 7) // n == 0 keeps one "0"
	dst = binary.LittleEndian.AppendUint64(dst, v>>(8*skip)|ascii)
	return dst[:len(dst)-skip]
}

// appendFloat formats a finite f the way encoding/json does: shortest
// digits that round-trip, positional unless the exponent is below -6 or
// at least 21, and then with a two-digit negative exponent's leading zero
// dropped (e-07 becomes e-7). A short decimal, what a sensor reporting
// milliwatts or quarter watts yields, is spelled without strconv.
func appendFloat(dst []byte, f float64) []byte {
	if out, ok := appendShortDecimal(dst, f); ok {
		return out
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// pow10 holds the powers of ten a float64 represents exactly that the
// short-decimal paths scale by.
var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// maxShortDigits is DBL_DIG: every decimal of this many significant digits
// or fewer survives the trip to the nearest float64 and back.
const maxShortDigits = 15

// appendShortDecimal appends f when it is u/10^k for an integer u < 10^15
// and k <= 6, the quotient taken as IEEE division, and reports whether it
// was. Then f is the float64 nearest the decimal u·10^-k, which has at most
// 15 significant digits, and no other decimal of at most 15 digits is
// nearest f (DBL_DIG), so u with its trailing zeros stripped is exactly
// the shortest spelling that round-trips: strconv's, byte for byte. Zero
// of either sign and |f| < 1e-6 (exponent form) are left to the caller.
//
// u is written as its integer part and its k fraction digits: the
// integer part by appendUint, the fraction by digits8, which spells it
// with 8-k leading zeros; shifted out, they leave the fraction's digits in
// the word's low bytes and its trailing zeros as zero bytes above them,
// which one count of leading zero bits finds.
func appendShortDecimal(dst []byte, f float64) ([]byte, bool) {
	a := math.Abs(f)
	if !(a >= 1e-6 && a < 1e15) {
		return dst, false
	}
	k := 6
	for a*pow10[k] >= 1e15 {
		k--
	}
	u := uint64(int64(a*pow10[k] + 0.5))
	if u >= 1e15 || float64(u)/pow10[k] != a {
		return dst, false
	}
	var whole, frac uint64
	if k == 6 { // |f| < 10^9: every value a sensor reports
		whole, frac = u/1e6, u%1e6
	} else {
		p := uint64(pow10[k])
		whole, frac = u/p, u%p
	}
	if f < 0 {
		dst = append(dst, '-')
	}
	dst = appendUint(dst, whole)
	if frac == 0 {
		return dst, true
	}
	v := digits8(frac) >> (8 * (8 - k))
	n := 8 - bits.LeadingZeros64(v)/8 // k less the trailing zeros
	dst = binary.LittleEndian.AppendUint64(append(dst, '.'), v|ascii)
	return dst[:len(dst)-8+n], true
}

// plainByte reports whether c stands for itself inside a JSON string on
// both sides of this codec: printable ASCII that encoding/json neither
// escapes (quote, backslash, and <, >, & under its default HTML escaping)
// nor has to validate as UTF-8.
func plainByte(c byte) bool {
	return 0x20 <= c && c < 0x7f && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// appendString appends s as a JSON string. Series names and units are
// plain; anything else goes through encoding/json, which owns the escape
// and invalid-UTF-8 rules.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			quoted, _ := json.Marshal(s) // a string cannot fail to marshal
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// WireFrame is one frame of a /query document that has been checked and
// not decoded: the series it belongs to — what a merge orders by — and the
// frame object itself in AppendJSON's spelling. JSON from SplitQueryResult
// aliases the body it was split from.
type WireFrame struct {
	Key  telemetry.SeriesKey
	JSON []byte
}

// Wire is the frame in the form a WireResult carries: encoded as
// AppendJSON encodes it, and failing on what AppendJSON fails on.
func (f *Frame) Wire() (WireFrame, error) {
	b, err := appendFrame(nil, f)
	return WireFrame{Key: f.Key(), JSON: b}, err
}

// Decode is the frame as DecodeQueryResult would have returned it inside
// its document. Nothing in the result aliases JSON.
func (w *WireFrame) Decode() (Frame, error) {
	var f Frame
	if d := (scanner{b: w.JSON}); d.frame(&f, new(Frame)) && d.i == len(d.b) {
		return f, nil
	}
	f = Frame{} // a label that needed an escape
	err := json.Unmarshal(w.JSON, &f)
	return f, err
}

// WireResult is the /query document in the hands of whoever passes it on
// (envfedd): QueryResult with its frames left as bytes. AppendJSON writes
// what QueryResult.AppendJSON would write for the same frames decoded, and
// Answer applies the same rule.
//
// Err is how a document that could not be put together is served: a merge
// that had to compute a frame (a series on several members) and could not
// encode the result leaves the reason here, AppendJSON returns it, and the
// answer is the 500 a single daemon gives for a value JSON cannot carry.
type WireResult struct {
	Frames   []WireFrame
	SimNowNS int64
	NewestNS int64
	Degraded *Degraded
	Err      error
}

// AppendJSON appends the document to dst, its frames as they are.
func (r WireResult) AppendJSON(dst []byte) ([]byte, error) {
	if r.Err != nil {
		return dst, r.Err
	}
	start := len(dst)
	size := 128
	for i := range r.Frames {
		size += len(r.Frames[i].JSON) + 1
	}
	dst = slices.Grow(dst, size)
	dst = append(dst, `{"frames":`...)
	if r.Frames == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range r.Frames {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, r.Frames[i].JSON...)
		}
		dst = append(dst, ']')
	}
	return appendTail(dst, start, r.SimNowNS, r.NewestNS, r.Degraded)
}

// SplitQueryResult is DecodeQueryResult for a body that will be passed on:
// it accepts what DecodeQueryResult accepts and fails, with the same error,
// where it fails, and returns the frames as bytes in AppendJSON's spelling
// under their series keys. A body already in that spelling is checked in
// the decoder's own pass and its frames alias it; any other body is
// decoded by encoding/json and its frames encoded again one by one, which
// reencoded reports.
func SplitQueryResult(body []byte) (w WireResult, reencoded bool, err error) {
	var r QueryResult
	if walkCanonical(body, &r, &w.Frames) {
		w.SimNowNS, w.NewestNS, w.Degraded = r.SimNowNS, r.NewestNS, r.Degraded
		return w, false, nil
	}
	r = QueryResult{} // the pass above may have filled it part-way
	if err := json.Unmarshal(body, &r); err != nil {
		return WireResult{}, false, err
	}
	w = WireResult{SimNowNS: r.SimNowNS, NewestNS: r.NewestNS, Degraded: r.Degraded}
	if r.Frames != nil {
		w.Frames = make([]WireFrame, len(r.Frames))
	}
	for i := range r.Frames {
		if w.Frames[i], err = r.Frames[i].Wire(); err != nil {
			return WireResult{}, false, err
		}
	}
	return w, true, nil
}

// DecodeQueryResult decodes a /query response body into the value
// json.Unmarshal would produce for it, and fails exactly when
// json.Unmarshal would, with its error. A body in the shape AppendJSON
// emits is decoded in one pass; any other body is json.Unmarshal's.
// Nothing in the result aliases body.
func DecodeQueryResult(body []byte) (QueryResult, error) {
	var r QueryResult
	if decodeCanonical(body, &r) {
		return r, nil
	}
	// Into a fresh value: the pass above may have filled r part-way before
	// it met what it does not recognise.
	var slow QueryResult
	err := json.Unmarshal(body, &slow)
	return slow, err
}

// decodeCanonical decodes b when it is byte for byte in AppendJSON's
// shape (keys present, ordered and spelled as the encoder writes them, no
// insignificant whitespace, plain strings), and otherwise reports false
// with r in an undefined state. It decides nothing about validity: what
// it declines, encoding/json judges.
func decodeCanonical(b []byte, r *QueryResult) bool { return walkCanonical(b, r, nil) }

// walkCanonical is the one pass over a body in AppendJSON's shape, behind
// DecodeQueryResult and SplitQueryResult both. With wire nil the frames
// are decoded into r.Frames. Otherwise each frame is matched token for
// token by the same code and appended to *wire as the bytes it is, with
// the key read from its labels; r takes the rest of the document. A body
// declined one way is declined the other.
func walkCanonical(b []byte, r *QueryResult, wire *[]WireFrame) bool {
	end := len(b)
	if end > 0 && b[end-1] == '\n' {
		end--
	}
	if end == 0 || b[end-1] != '}' {
		return false
	}
	d := scanner{b: b[:end-1], split: wire != nil}
	if !d.key(keyFrames) {
		return false
	}
	if !d.null() {
		if !d.byte('[') {
			return false
		}
		if d.split {
			*wire = []WireFrame{}
		} else {
			r.Frames = []Frame{}
		}
		d.first = d.i
		for prev := new(Frame); !d.byte(']'); d.n++ {
			if d.n > 0 && !d.byte(',') {
				return false
			}
			if d.split {
				// Only the labels are kept, so one Frame serves as every
				// frame and as the one before it.
				*wire = grow(*wire, &d)
				from := d.i
				if !d.frame(prev, prev) {
					return false
				}
				*wire = append(*wire, WireFrame{Key: prev.Key(), JSON: d.b[from:d.i:d.i]})
				continue
			}
			r.Frames = append(grow(r.Frames, &d), Frame{})
			f := &r.Frames[len(r.Frames)-1]
			if !d.frame(f, prev) {
				return false
			}
			prev = f
		}
	}
	var ok bool
	if d.key(keySimNow) {
		if r.SimNowNS, ok = d.int(); !ok {
			return false
		}
	}
	if d.key(keyNewest) {
		if r.NewestNS, ok = d.int(); !ok {
			return false
		}
	}
	if d.key(keyDegraded) {
		// Last key of the document, so its value is the rest of it.
		// Unmarshal rejects anything there but exactly one JSON value.
		return json.Unmarshal(d.b[d.i:], &r.Degraded) == nil
	}
	return d.i == len(d.b)
}

// scanner is walkCanonical's position in the body. It reads each byte
// once — a key is a word compare, punctuation a byte compare, and a number
// is checked against the grammar and converted in one loop — besides the
// vectorised scans behind a column's capacity hint.
//
// With split set the walk checks and does not keep: frame fills in the
// labels only, and a number is matched against the grammar and, where its
// spelling alone cannot show it finite, converted to find out — never
// more, so that splitting a body costs no ParseFloat and no slice per
// frame. Everything else, token for token, is the decoding walk.
type scanner struct {
	b       []byte
	i       int
	split   bool
	parsed  int     // tokens float left to strconv, which the tests count
	checked Buckets // where a split walk reads bucket columns into, keeping none

	// The frames array opened at first, and n of its frames are read:
	// what the frame list and the column blocks are sized by.
	first, n int
	// The blocks small columns and reductions are carved from (carve).
	durations []time.Duration
	floats    []float64
	ints      []int
}

// minFrameLen is the shortest frame AppendJSON writes, its five labels
// empty and nothing else, and the comma before it:
// ,{"node":"","backend":"","domain":"","unit":"","resolution":""}.
const minFrameLen = 63

// more estimates how many frames the array holds past those read: the
// rest of the body over their mean length, an eighth more for frames that
// spell their numbers longer than the ones before, and never more than the
// rest could hold at minFrameLen bytes a frame — so that a body can make
// the walk allocate frames only in proportion to its own length. Before
// the first frame is read it says one, which that frame then sizes.
func (d *scanner) more() int {
	rest := len(d.b) - d.i
	if d.n == 0 {
		return 1
	}
	est := rest * d.n / max(d.i-d.first, 1)
	return min(est+est/8, rest/minFrameLen) + 1
}

// grow makes room in a full frame list for the frames the rest of the
// body is estimated to hold (scanner.more), in one allocation of exactly
// that size where append would double.
func grow[T any](s []T, d *scanner) []T {
	if len(s) < cap(s) {
		return s
	}
	return append(make([]T, 0, len(s)+d.more()), s...)
}

// carve returns an empty column of capacity n for the frame being read.
// A small one is cut from the document's block for its type with a full
// slice expression, so that an append past n copies it out instead of
// running into the next frame's column; a block is as large as this
// column times the frames still to come, up to blockLen elements. A
// large column (a history reply) is its own allocation.
func carve[T any](block *[]T, n int, d *scanner) []T {
	if n > maxCarved {
		return make([]T, 0, n)
	}
	b := *block
	if cap(b)-len(b) < n {
		b = make([]T, 0, max(n, min(n*d.more(), blockLen)))
	}
	*block = b[:len(b)+n]
	return b[len(b) : len(b) : len(b)+n]
}

// The largest column carve cuts from a block, and the most elements a
// block holds.
const maxCarved, blockLen = 64, 1024

// A key is an object key with the punctuation around it, as the document
// spells it (`,"max":`), in the form the scanner compares: its first eight
// bytes and its last eight as little-endian words, which overlap below
// sixteen bytes and coincide, masked to the key, at seven.
type key struct {
	lo, hi, mask uint64
	n, at        int
}

func newKey(s string) key {
	if len(s) < 7 || len(s) > 16 {
		panic("httpapi: a key is compared as one or two words, so 7 to 16 bytes: " + s)
	}
	var w [16]byte
	copy(w[:], s)
	k := key{n: len(s), at: max(len(s)-8, 0), mask: ^uint64(0)}
	if k.n < 8 {
		k.mask = 1<<(8*k.n) - 1
	}
	k.lo = binary.LittleEndian.Uint64(w[:]) & k.mask
	k.hi = binary.LittleEndian.Uint64(w[k.at:]) & k.mask
	return k
}

// The keys the scanner matches, each defined once.
var (
	keyFrames      = newKey(`{"frames":`)
	keySimNow      = newKey(`,"sim_now_ns":`)
	keyNewest      = newKey(`,"newest_ns":`)
	keyDegraded    = newKey(`,"degraded":`)
	keyNode        = newKey(`{"node":`)
	keyBackend     = newKey(`,"backend":`)
	keyDomain      = newKey(`,"domain":`)
	keyUnit        = newKey(`,"unit":`)
	keyResolution  = newKey(`,"resolution":`)
	keyReduced     = newKey(`,"reduced":`)
	keyColumnT     = newKey(`,"t_ns":[`)
	keyColumnV     = newKey(`],"v":[`) // each column ends where the next begins
	keyColumnMin   = newKey(`],"min":[`)
	keyColumnMax   = newKey(`],"max":[`)
	keyColumnLast  = newKey(`],"last":[`)
	keyColumnCount = newKey(`],"count":[`)
	keyGaps        = newKey(`,"gaps_ns":[`)
)

// key consumes k if the input continues with it. A value follows every
// key, so a key that ends the input is no match, and each load is a whole
// word of input.
func (d *scanner) key(k key) bool {
	b := d.b[d.i:]
	if len(b) <= k.n || binary.LittleEndian.Uint64(b)&k.mask != k.lo || binary.LittleEndian.Uint64(b[k.at:])&k.mask != k.hi {
		return false
	}
	d.i += k.n
	return true
}

// byte consumes c if the input continues with it.
func (d *scanner) byte(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// null consumes the literal null, which may end the input.
func (d *scanner) null() bool {
	if b := d.b[d.i:]; len(b) >= 4 && string(b[:4]) == "null" {
		d.i += 4
		return true
	}
	return false
}

// frame decodes one frame object — on a split walk, its labels and no
// more. prev is the frame before it (or an empty one, or f itself):
// labels other than the node mostly repeat from frame to frame, and a
// repeated label shares the earlier frame's string.
func (d *scanner) frame(f, prev *Frame) bool {
	var ok bool
	if !d.key(keyNode) {
		return false
	}
	if f.Node, ok = d.str(prev.Node); !ok || !d.key(keyBackend) {
		return false
	}
	if f.Backend, ok = d.str(prev.Backend); !ok || !d.key(keyDomain) {
		return false
	}
	if f.Domain, ok = d.str(prev.Domain); !ok || !d.key(keyUnit) {
		return false
	}
	if f.Unit, ok = d.str(prev.Unit); !ok || !d.key(keyResolution) {
		return false
	}
	if f.Resolution, ok = d.str(prev.Resolution); !ok {
		return false
	}
	if d.key(keyReduced) {
		v, ok := d.float()
		if !ok {
			return false
		}
		if !d.split {
			f.Reduced = &append(carve(&d.floats, 1, d), v)[0]
		}
	}
	if d.key(keyColumnT) { // t_ns and v both or neither
		if !d.split {
			n := d.hint(',', 2) + 1
			f.TNS, f.V = carve(&d.durations, n, d), carve(&d.floats, n, d)
		}
		if !array(d, &f.TNS, d.duration) || !d.key(keyColumnV) || !array(d, &f.V, d.float) {
			return false
		}
		if d.key(keyColumnMin) { // then a rollup's four bucket columns, all or none
			b := &d.checked
			if !d.split {
				n := len(f.V)
				f.Buckets = &Buckets{Min: carve(&d.floats, n, d), Max: carve(&d.floats, n, d), Last: carve(&d.floats, n, d), Count: carve(&d.ints, n, d)}
				b = f.Buckets
			}
			if !array(d, &b.Min, d.float) || !d.key(keyColumnMax) || !array(d, &b.Max, d.float) ||
				!d.key(keyColumnLast) || !array(d, &b.Last, d.float) || !d.key(keyColumnCount) || !array(d, &b.Count, d.count) {
				return false
			}
		}
		if !d.byte(']') {
			return false
		}
	}
	if d.key(keyGaps) {
		if !d.split {
			f.GapsNS = carve(&d.durations, d.hint(',', 2)+1, d)
		}
		if !array(d, &f.GapsNS, d.duration) || !d.byte(']') {
			return false
		}
	}
	return d.byte('}')
}

// hint is a capacity hint for the array at the input, its '[' consumed,
// so that its elements are allocated once: the count of c (what opens or
// separates its elements) before the next ']', and no more than the array
// could hold at size bytes an element. A wrong hint costs a regrow or some
// slack, never a wrong result.
func (d *scanner) hint(c byte, size int) int {
	array := d.b[d.i:]
	if n := bytes.IndexByte(array, ']'); n >= 0 {
		array = array[:n]
	}
	return min(bytes.Count(array, []byte{c}), len(array)/size+1)
}

// array decodes the elements of an array, its '[' consumed, up to the ']'
// that ends it, which it leaves; a split walk checks them and keeps none.
func array[T any](d *scanner, out *[]T, number func() (T, bool)) bool {
	for n := 0; d.i < len(d.b) && d.b[d.i] != ']'; n++ {
		if n > 0 && !d.byte(',') {
			return false
		}
		v, ok := number()
		if !ok {
			return false
		}
		if !d.split {
			*out = append(*out, v)
		}
	}
	return true
}

// str decodes a plain string (no escapes, printable ASCII only). The
// result is a copy of the input bytes, or prev when it spells the same.
func (d *scanner) str(prev string) (string, bool) {
	if !d.byte('"') {
		return "", false
	}
	for j := d.i; j < len(d.b); j++ {
		if c := d.b[j]; c == '"' {
			tok := d.b[d.i:j]
			d.i = j + 1
			if string(tok) == prev {
				return prev, true
			}
			return string(tok), true
		} else if !plainByte(c) {
			break
		}
	}
	return "", false
}

// The number readers check a token against the JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, in the loop that
// accumulates its digits. strconv accepts much that JSON does not ("+1",
// ".5", "1.", "01", "0x1p3", "Inf", "1_0"), so nothing reaches it that has
// not passed here. What follows the token is the caller's to match.

// duration decodes an integer count of nanoseconds.
func (d *scanner) duration() (time.Duration, bool) {
	v, ok := d.int()
	return time.Duration(v), ok
}

// count decodes a bucket's sample count, an int; one past int's range is
// encoding/json's to report.
func (d *scanner) count() (int, bool) {
	v, ok := d.int()
	return int(v), ok && int64(int(v)) == v
}

// int decodes an integer. A fraction, an exponent or an overflow is
// encoding/json's to report.
func (d *scanner) int() (int64, bool) {
	b, i := d.b, d.i
	neg := i < len(b) && b[i] == '-'
	limit := uint64(math.MaxInt64)
	if neg {
		i++
		limit++
	}
	from := i
	var v uint64 // 19 digits cannot wrap it
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			break
		}
		v = v*10 + uint64(c)
	}
	if n := i - from; n == 0 || n > 19 || n > 1 && b[from] == '0' || v > limit ||
		i < len(b) && (b[i] == '.' || b[i]|0x20 == 'e') {
		return 0, false
	}
	d.i = i
	if neg {
		return -int64(v), true // -(1<<63) wraps to itself, as it should
	}
	return int64(v), true
}

// float decodes a number as a float64. A token without an exponent and of
// at most 15 digits is m/10^frac with both exact in a float64, so one IEEE
// division rounds it correctly and the result is ParseFloat's to the bit,
// -0 included; any other token is ParseFloat's. A value out of range is
// encoding/json's to report.
func (d *scanner) float() (float64, bool) {
	b, i := d.b, d.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	from := i
	var m uint64 // wraps past 19 digits, and is then not used
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			break
		}
		m = m*10 + uint64(c)
	}
	digits := i - from
	if digits == 0 || digits > 1 && b[from] == '0' {
		return 0, false
	}
	frac := 0
	if i < len(b) && b[i] == '.' {
		i++
		from = i
		for ; i < len(b); i++ {
			c := b[i] - '0'
			if c > 9 {
				break
			}
			m = m*10 + uint64(c)
		}
		if frac = i - from; frac == 0 {
			return 0, false
		}
	}
	exponent := i < len(b) && b[i]|0x20 == 'e'
	if exponent {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		from = i
		for i < len(b) && b[i]-'0' <= 9 {
			i++
		}
		if i == from {
			return 0, false
		}
	}
	tok := b[d.i:i]
	d.i = i
	switch {
	case !exponent && d.split && len(tok) <= maxPlainFloatLen:
		// Past the grammar, a token fails to convert only by being too
		// large for a float64, and one without an exponent is below ten
		// to the count of its characters. A split walk, which wants the
		// verdict and not the value, takes that much from the spelling.
		return 0, true
	case !exponent && digits+frac <= maxShortDigits:
		v := float64(m) / pow10[frac]
		if neg {
			v = -v
		}
		return v, true
	}
	d.parsed++
	v, err := strconv.ParseFloat(string(tok), 64)
	return v, err == nil
}

// maxPlainFloatLen is the longest number without an exponent that is
// finite whatever its digits: under 1e308, and math.MaxFloat64 is 1.79e308.
const maxPlainFloatLen = 308
