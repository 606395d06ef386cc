package httpapi

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"

	"envmon/internal/telemetry"
)

// The /query document's codec. A history reply is ~10k points and the
// reflection-driven encoding/json spends more time on it than the store
// does answering, on both ends of the wire, so QueryResult has a
// hand-written encoder and decoder beside its type. Neither defines a
// format: AppendJSON writes byte for byte what json.NewEncoder(w).Encode
// writes, and DecodeQueryResult returns what json.Unmarshal returns.
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
// naming the series and the point.
func (r QueryResult) AppendJSON(dst []byte) ([]byte, error) {
	start := len(dst)
	// Room for the typical spelling up front: append would reallocate a
	// cold buffer some twenty times on the way to a history reply.
	size := 128
	for i := range r.Frames {
		f := &r.Frames[i]
		size += 128 + len(f.Node) + len(f.Backend) + len(f.Domain) + len(f.Unit) + len(f.Resolution) +
			128*len(f.Points) + 20*len(f.GapsNS)
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
		dst = strconv.AppendInt(dst, simNowNS, 10)
	}
	if newestNS != 0 {
		dst = append(dst, `,"newest_ns":`...)
		dst = strconv.AppendInt(dst, newestNS, 10)
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
	dst = append(dst, `,"points":`...)
	if f.Points == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range f.Points {
			if i > 0 {
				dst = append(dst, ',')
			}
			p := &f.Points[i]
			if !(finite(p.Min) && finite(p.Max) && finite(p.Mean) && finite(p.Last)) {
				return dst, fmt.Errorf("httpapi: series %s/%s/%s at t_ns=%d: point min=%v max=%v mean=%v last=%v is not representable in JSON",
					f.Node, f.Backend, f.Domain, p.T, p.Min, p.Max, p.Mean, p.Last)
			}
			dst = appendPoint(dst, p)
		}
		dst = append(dst, ']')
	}
	if len(f.GapsNS) > 0 {
		dst = append(dst, `,"gaps_ns":[`...)
		for i, g := range f.GapsNS {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(g), 10)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

func appendPoint(dst []byte, p *Point) []byte {
	dst = append(dst, `{"t_ns":`...)
	dst = strconv.AppendInt(dst, int64(p.T), 10)
	dst = append(dst, `,"min":`...)
	from := len(dst)
	dst = appendFloat(dst, p.Min)
	to := len(dst)
	// A raw point is one sample, so all four statistics are the same
	// float: format it once and copy the digits. Compared as bit patterns,
	// not with ==, because -0 == 0 and the two print differently.
	if b := math.Float64bits(p.Min); b == math.Float64bits(p.Max) &&
		b == math.Float64bits(p.Mean) && b == math.Float64bits(p.Last) {
		dst = append(append(dst, `,"max":`...), dst[from:to]...)
		dst = append(append(dst, `,"mean":`...), dst[from:to]...)
		dst = append(append(dst, `,"last":`...), dst[from:to]...)
	} else {
		dst = appendFloat(append(dst, `,"max":`...), p.Max)
		dst = appendFloat(append(dst, `,"mean":`...), p.Mean)
		dst = appendFloat(append(dst, `,"last":`...), p.Last)
	}
	dst = append(dst, `,"count":`...)
	dst = strconv.AppendInt(dst, int64(p.Count), 10)
	return append(dst, '}')
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

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
func appendShortDecimal(dst []byte, f float64) ([]byte, bool) {
	a := math.Abs(f)
	if !(a >= 1e-6 && a < 1e15) {
		return dst, false
	}
	k := 6
	for a*pow10[k] >= 1e15 {
		k--
	}
	u := uint64(a*pow10[k] + 0.5)
	if u >= 1e15 || float64(u)/pow10[k] != a {
		return dst, false
	}
	for k > 0 && u%10 == 0 {
		u /= 10
		k--
	}
	var buf [maxShortDigits + 3]byte // sign, digits, point, a leading zero
	i := len(buf)
	for frac := k; frac > 0; frac-- {
		i--
		buf[i] = '0' + byte(u%10)
		u /= 10
	}
	if k > 0 {
		i--
		buf[i] = '.'
	}
	for {
		i--
		buf[i] = '0' + byte(u%10)
		if u /= 10; u == 0 {
			break
		}
	}
	if f < 0 {
		i--
		buf[i] = '-'
	}
	return append(dst, buf[i:]...), true
}

// parseShortDecimal converts a token number() has accepted that has no
// exponent and at most 15 digits: it is m/10^frac with both exact in a
// float64, so one IEEE division rounds it correctly and the result is
// ParseFloat's to the bit, -0 included.
func parseShortDecimal(tok []byte) (float64, bool) {
	neg := tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	if len(tok) > maxShortDigits+1 {
		return 0, false
	}
	var m uint64
	frac := 0
	for i, c := range tok {
		if c == '.' {
			frac = len(tok) - 1 - i
			continue
		}
		m = m*10 + uint64(c-'0')
	}
	if frac == 0 && len(tok) > maxShortDigits {
		return 0, false
	}
	v := float64(m) / pow10[frac]
	if neg {
		v = -v
	}
	return v, true
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
	if !d.lit(`{"frames":`) {
		return false
	}
	if !d.lit("null") {
		if !d.lit("[") {
			return false
		}
		if d.split {
			*wire = []WireFrame{}
		} else {
			r.Frames = []Frame{}
		}
		for n, prev := 0, new(Frame); !d.lit("]"); n++ {
			if n > 0 && !d.lit(",") {
				return false
			}
			if d.split {
				// Only the labels are kept, so one Frame serves as every
				// frame and as the one before it.
				from := d.i
				if !d.frame(prev, prev) {
					return false
				}
				*wire = append(*wire, WireFrame{Key: prev.Key(), JSON: d.b[from:d.i:d.i]})
				continue
			}
			r.Frames = append(r.Frames, Frame{})
			f := &r.Frames[len(r.Frames)-1]
			if !d.frame(f, prev) {
				return false
			}
			prev = f
		}
	}
	var ok bool
	if d.lit(`,"sim_now_ns":`) {
		if r.SimNowNS, ok = d.int(); !ok {
			return false
		}
	}
	if d.lit(`,"newest_ns":`) {
		if r.NewestNS, ok = d.int(); !ok {
			return false
		}
	}
	if d.lit(`,"degraded":`) {
		// Last key of the document, so its value is the rest of it.
		// Unmarshal rejects anything there but exactly one JSON value.
		return json.Unmarshal(d.b[d.i:], &r.Degraded) == nil
	}
	return d.i == len(d.b)
}

// scanner is walkCanonical's position in the body, plus the last float
// token parsed: a raw point repeats one number four times and neighbouring
// points often repeat it again, and equal bytes parse to equal values.
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
	lastTok []byte
	lastVal float64
}

// lit consumes s if the input continues with it. Every literal of the
// document is at most 16 bytes long: a key of 4 or more is compared as its
// first and its last word, which overlap when it is shorter than two, and
// punctuation byte by byte — a few loads and compares where a string
// comparison would call into the runtime's memory compare once a token.
func (d *scanner) lit(s string) bool {
	b := d.b[d.i:]
	n := len(s)
	if len(b) < n {
		return false
	}
	eq := true
	switch {
	case n > 16:
		eq = string(b[:n]) == s
	case n >= 8:
		eq = binary.LittleEndian.Uint64(b) == word64(s) && binary.LittleEndian.Uint64(b[n-8:]) == word64(s[n-8:])
	case n >= 4:
		eq = binary.LittleEndian.Uint32(b) == word32(s) && binary.LittleEndian.Uint32(b[n-4:]) == word32(s[n-4:])
	default:
		for i := 0; i < n && eq; i++ {
			eq = b[i] == s[i]
		}
	}
	if eq {
		d.i += n
	}
	return eq
}

// word32 and word64 read the leading bytes of s as a little-endian word,
// as binary.LittleEndian does a slice's.
func word32(s string) uint32 {
	_ = s[3]
	return uint32(s[0]) | uint32(s[1])<<8 | uint32(s[2])<<16 | uint32(s[3])<<24
}

func word64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// frame decodes one frame object — on a split walk, its labels and no
// more. prev is the frame before it (or an empty one, or f itself):
// labels other than the node mostly repeat from frame to frame, and a
// repeated label shares the earlier frame's string.
func (d *scanner) frame(f, prev *Frame) bool {
	var ok bool
	if !d.lit(`{"node":`) {
		return false
	}
	if f.Node, ok = d.str(prev.Node); !ok || !d.lit(`,"backend":`) {
		return false
	}
	if f.Backend, ok = d.str(prev.Backend); !ok || !d.lit(`,"domain":`) {
		return false
	}
	if f.Domain, ok = d.str(prev.Domain); !ok || !d.lit(`,"unit":`) {
		return false
	}
	if f.Unit, ok = d.str(prev.Unit); !ok || !d.lit(`,"resolution":`) {
		return false
	}
	if f.Resolution, ok = d.str(prev.Resolution); !ok {
		return false
	}
	if d.lit(`,"reduced":`) {
		v, ok := d.float()
		if !ok {
			return false
		}
		if !d.split {
			reduced := v // its own variable, so that only a kept one is allocated
			f.Reduced = &reduced
		}
	}
	if !d.lit(`,"points":`) {
		return false
	}
	if !d.lit("null") {
		if !d.lit("[") {
			return false
		}
		// A capacity hint, so that a history frame's points are allocated
		// once: the array runs to the next ']' and holds one '{' per
		// point. A wrong hint costs a regrow or some slack, never a wrong
		// result, and cannot exceed what the shortest point spelling
		// allows the array to hold.
		if !d.split {
			array := d.b[d.i:]
			if n := bytes.IndexByte(array, ']'); n >= 0 {
				array = array[:n]
			}
			f.Points = make([]Point, 0, min(bytes.Count(array, []byte{'{'}), len(array)/minPointLen+1))
		}
		var checked Point // where a split walk puts every point
		for n := 0; !d.lit("]"); n++ {
			if n > 0 && !d.lit(",") {
				return false
			}
			p := &checked
			if !d.split {
				f.Points = append(f.Points, Point{})
				p = &f.Points[n]
			}
			if !d.point(p) {
				return false
			}
		}
	}
	if d.lit(`,"gaps_ns":[`) {
		if !d.split {
			f.GapsNS = []time.Duration{}
		}
		for n := 0; !d.lit("]"); n++ {
			if n > 0 && !d.lit(",") {
				return false
			}
			g, ok := d.int()
			if !ok {
				return false
			}
			if !d.split {
				f.GapsNS = append(f.GapsNS, time.Duration(g))
			}
		}
	}
	return d.lit("}")
}

const minPointLen = len(`{"t_ns":0,"min":0,"max":0,"mean":0,"last":0,"count":0},`)

func (d *scanner) point(p *Point) bool {
	if !d.lit(`{"t_ns":`) {
		return false
	}
	t, ok := d.int()
	if p.T = time.Duration(t); !ok || !d.lit(`,"min":`) {
		return false
	}
	if p.Min, ok = d.float(); !ok || !d.lit(`,"max":`) {
		return false
	}
	if p.Max, ok = d.float(); !ok || !d.lit(`,"mean":`) {
		return false
	}
	if p.Mean, ok = d.float(); !ok || !d.lit(`,"last":`) {
		return false
	}
	if p.Last, ok = d.float(); !ok || !d.lit(`,"count":`) {
		return false
	}
	n, ok := d.int()
	p.Count = int(n)
	return ok && int64(p.Count) == n && d.lit("}")
}

// str decodes a plain string (no escapes, printable ASCII only). The
// result is a copy of the input bytes, or prev when it spells the same.
func (d *scanner) str(prev string) (string, bool) {
	if !d.lit(`"`) {
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

// number consumes one token of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and reports whether it
// is all integer part, and whether it has an exponent. strconv accepts
// much that JSON does not ("+1", ".5", "1.", "01", "0x1p3", "Inf", "1_0"),
// so nothing reaches it that has not passed here. What follows the token
// is the caller's to match.
func (d *scanner) number() (tok []byte, integer, exponent bool) {
	b, i := d.b, d.i
	digits := func() bool {
		from := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > from
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return nil, false, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		i++
		integer = false
		if !digits() {
			return nil, false, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		integer, exponent = false, true
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false, false
		}
	}
	tok = b[d.i:i]
	d.i = i
	return tok, integer, exponent
}

// int decodes an integer. A fraction, an exponent or an overflow is
// encoding/json's to report.
func (d *scanner) int() (int64, bool) {
	tok, integer, _ := d.number()
	if !integer {
		return 0, false
	}
	if len(tok) > 18 { // may not fit: let strconv find out
		v, err := strconv.ParseInt(string(tok), 10, 64)
		return v, err == nil
	}
	neg := tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	var v int64
	for _, c := range tok {
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	return v, true
}

// float decodes a number as a float64. A value out of range is
// encoding/json's to report.
func (d *scanner) float() (float64, bool) {
	// The last token again, and nothing after it that could continue a
	// number: the same token, without scanning or parsing it.
	if n := len(d.lastTok); n > 0 && len(d.b)-d.i > n && string(d.b[d.i:d.i+n]) == string(d.lastTok) {
		if c := d.b[d.i+n]; !('0' <= c && c <= '9') && c != '.' && c != 'e' && c != 'E' {
			d.i += n
			return d.lastVal, true
		}
	}
	tok, _, exponent := d.number()
	if tok == nil {
		return 0, false
	}
	var v float64
	// Past the grammar, a token fails to convert only by being too large
	// for a float64, and one without an exponent is below ten to the count
	// of its characters. A split walk, which wants the verdict and not the
	// value, takes that much from the spelling.
	if !d.split || exponent || len(tok) > maxPlainFloatLen {
		var ok bool
		if !exponent {
			v, ok = parseShortDecimal(tok)
		}
		if !ok {
			var err error
			if v, err = strconv.ParseFloat(string(tok), 64); err != nil {
				return 0, false
			}
		}
	}
	d.lastTok, d.lastVal = tok, v
	return v, true
}

// maxPlainFloatLen is the longest number without an exponent that is
// finite whatever its digits: under 1e308, and math.MaxFloat64 is 1.79e308.
const maxPlainFloatLen = 308
