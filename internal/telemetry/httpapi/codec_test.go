package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The reference both halves of the codec are pinned against: what every
// /query answer was encoded and decoded with before the codec existed.

func refEncode(r QueryResult) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(r)
	return buf.Bytes(), err
}

func refDecode(body []byte) (QueryResult, error) {
	var r QueryResult
	err := json.Unmarshal(body, &r)
	return r, err
}

// sameResult is reflect.DeepEqual plus the sign of zero, which == (and so
// DeepEqual) cannot see: two results are the same when they are deeply
// equal and the reference encoder prints them alike.
func sameResult(a, b QueryResult) bool {
	if !reflect.DeepEqual(a, b) {
		return false
	}
	ea, erra := refEncode(a)
	eb, errb := refEncode(b)
	return erra == nil && errb == nil && bytes.Equal(ea, eb)
}

// checkAgree holds DecodeQueryResult to json.Unmarshal on one body: same
// verdict, same error text, same value.
func checkAgree(t *testing.T, body []byte) {
	t.Helper()
	got, gotErr := DecodeQueryResult(body)
	want, wantErr := refDecode(body)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("body %q:\ncodec error %v\n json error %v", body, gotErr, wantErr)
	}
	if gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("body %q:\ncodec error %v\n json error %v", body, gotErr, wantErr)
	}
	if gotErr == nil && !sameResult(got, want) {
		t.Fatalf("body %q:\ncodec %+v\n json %+v", body, got, want)
	}
}

// checkCodec holds both directions to the reference on one document, and
// the decoder to its one-pass path when canonical says the document is in
// the shape that path exists for — a decoder that always fell back to
// encoding/json would agree with it everywhere and be no codec at all.
func checkCodec(t *testing.T, r QueryResult, canonical bool) []byte {
	t.Helper()
	want, err := refEncode(r)
	if err != nil {
		t.Fatalf("reference encoder rejects %+v: %v", r, err)
	}
	got, err := r.AppendJSON(nil)
	if err != nil {
		t.Fatalf("AppendJSON(%+v): %v", r, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoding differs\ncodec %s json  %s", got, want)
	}
	prefix := []byte("kept")
	if out, _ := r.AppendJSON(prefix); !bytes.Equal(out, append([]byte("kept"), want...)) {
		t.Fatalf("AppendJSON did not append after %q: %s", prefix, out)
	}
	var fast QueryResult
	if ok := decodeCanonical(got, &fast); ok != canonical {
		t.Fatalf("one-pass decode = %v, want %v, on %s", ok, canonical, got)
	}
	checkAgree(t, got)
	checkSplit(t, got)
	return got
}

func f64(v float64) *float64 { return &v }

// oneFrame is a document of one frame at resolution res, and nothing in
// its window.
func oneFrame(res string) QueryResult {
	return QueryResult{Frames: []Frame{{Node: "n00", Backend: "MSR", Domain: "Total Power", Unit: "W", Resolution: res}}}
}

// rawFrame is a document of one raw frame whose i-th sample is v[i] at
// i+1 ns.
func rawFrame(v ...float64) QueryResult {
	r := oneFrame("raw")
	for i, x := range v {
		r.Frames[0].TNS, r.Frames[0].V = append(r.Frames[0].TNS, time.Duration(i+1)), append(r.Frames[0].V, x)
	}
	return r
}

// bucketsFrame is a document of one frame at 1 s holding points.
func bucketsFrame(points ...Point) QueryResult {
	r := oneFrame("1s")
	r.Frames[0].Points = points
	return r
}

// TestCodecCoversEveryField is the tripwire for a field added to a wire
// type but not to codec.go: an omitempty one would slip past the
// differential tests below until something set it.
func TestCodecCoversEveryField(t *testing.T) {
	for _, tc := range []struct {
		doc    any
		fields int
	}{{QueryResult{}, 4}, {Frame{}, 10}, {Point{}, 6}} {
		if n := reflect.TypeOf(tc.doc).NumField(); n != tc.fields {
			t.Errorf("%T has %d fields, codec.go encodes and decodes %d: teach it the new one, its tests too, then update this count",
				tc.doc, n, tc.fields)
		}
	}
	// The same for the split, without a count to update: a document with
	// every field of every type set, whatever the fields are by then, goes
	// through the encoder, the one-pass walk and the split whole. A field
	// the walk decodes but the split drops, or one only encoding/json
	// knows (the body would be re-encoded), fails here. Its two frames are
	// one of each shape a resolution gives: columns, and points.
	var full QueryResult
	setEveryField(reflect.ValueOf(&full).Elem())
	full.Frames[0].Resolution, full.Frames[0].Points = rawResolution, nil
	full.Frames[1].TNS, full.Frames[1].V = nil, nil
	body := checkCodec(t, full, true)
	w, reencoded, err := SplitQueryResult(body)
	if err != nil || reencoded || len(w.Frames) != len(full.Frames) {
		t.Fatalf("a document with every field set splits to %d frames, reencoded %v, err %v: %s", len(w.Frames), reencoded, err, body)
	}
	for i := range w.Frames {
		if f, err := w.Frames[i].Decode(); err != nil || !reflect.DeepEqual(f, full.Frames[i]) {
			t.Errorf("frame %d decoded from its bytes: %v\n got %+v\nwant %+v", i, err, f, full.Frames[i])
		}
	}
	if got, err := w.AppendJSON(nil); err != nil || !bytes.Equal(got, body) {
		t.Errorf("the split document written back (%v):\n got %s\nwant %s", err, got, body)
	}
	checkSplit(t, body)
}

// setEveryField sets every field under v, recursively, to a value that is
// not its zero value and that the codec spells plainly.
func setEveryField(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			setEveryField(v.Field(i))
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			setEveryField(v.Index(i))
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		setEveryField(v.Elem())
	case reflect.String:
		v.SetString("s")
	case reflect.Int, reflect.Int64:
		v.SetInt(7)
	case reflect.Float64:
		v.SetFloat(2.5)
	default:
		panic("setEveryField: teach me " + v.Kind().String())
	}
}

// checkSplit holds SplitQueryResult to DecodeQueryResult on one body: the
// same verdict with the same error; re-encoded exactly when the one-pass
// walk declines the body; and frames that, decoded one by one from the
// bytes they were kept as, are the frames of the decoded document under
// the keys they were filed by — as is the document they make up again.
func checkSplit(t *testing.T, body []byte) {
	t.Helper()
	want, wantErr := DecodeQueryResult(body)
	kept := bytes.Clone(body)
	got, reencoded, gotErr := SplitQueryResult(kept)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("body %q:\nsplit error  %v\ndecode error %v", body, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	var fast QueryResult
	if canonical := decodeCanonical(body, &fast); canonical == reencoded {
		t.Fatalf("body %q: one-pass decode = %v, but reencoded = %v", body, canonical, reencoded)
	}
	if (got.Frames == nil) != (want.Frames == nil) || len(got.Frames) != len(want.Frames) {
		t.Fatalf("body %q: %d frames split (nil: %v), %d decoded (nil: %v)", body,
			len(got.Frames), got.Frames == nil, len(want.Frames), want.Frames == nil)
	}
	rebuilt := QueryResult{SimNowNS: got.SimNowNS, NewestNS: got.NewestNS, Degraded: got.Degraded}
	if got.Frames != nil {
		rebuilt.Frames = []Frame{}
	}
	for i := range got.Frames {
		f, err := got.Frames[i].Decode()
		if err != nil {
			t.Fatalf("body %q: frame %d %q does not decode: %v", body, i, got.Frames[i].JSON, err)
		}
		if got.Frames[i].Key != want.Frames[i].Key() {
			t.Fatalf("body %q: frame %d filed under %v, is %v", body, i, got.Frames[i].Key, want.Frames[i].Key())
		}
		rebuilt.Frames = append(rebuilt.Frames, f)
		// The one thing a re-encode normalises: omitempty drops an empty
		// array, so it comes back nil.
		if w := &want.Frames[i]; reencoded {
			w.TNS, w.V, w.Points, w.GapsNS = nilIfEmpty(w.TNS), nilIfEmpty(w.V), nilIfEmpty(w.Points), nilIfEmpty(w.GapsNS)
		}
	}
	if !sameResult(rebuilt, want) {
		t.Fatalf("body %q:\nsplit, frames decoded one by one %+v\ndecoded whole                     %+v", body, rebuilt, want)
	}
	out, err := got.AppendJSON(nil)
	if err != nil {
		t.Fatalf("body %q: the split document does not encode: %v", body, err)
	}
	if again, err := DecodeQueryResult(out); err != nil || !sameResult(again, want) {
		t.Fatalf("body %q: written back as %q, which decodes to (%v) %+v, want %+v", body, out, err, again, want)
	}
	if !reencoded && got.Frames != nil {
		// Kept as they came: the frames, comma-separated, are the body's
		// own array. (The degraded section is encoding/json's both ways.)
		frames := make([][]byte, len(got.Frames))
		for i := range got.Frames {
			frames[i] = got.Frames[i].JSON
		}
		if array := "[" + string(bytes.Join(frames, []byte(","))) + "]"; !bytes.HasPrefix(body[len(`{"frames":`):], []byte(array)) {
			t.Fatalf("body %q was not re-encoded, yet its frames came back as %s", body, array)
		}
	}
	if !bytes.Equal(kept, body) {
		t.Fatalf("SplitQueryResult wrote to its input: %q, was %q", kept, body)
	}
}

// nilIfEmpty is what a decode of an omitempty array's absence gives.
func nilIfEmpty[T any](xs []T) []T {
	if len(xs) == 0 {
		return nil
	}
	return xs
}

func TestCodecShapes(t *testing.T) {
	power := Frame{Node: "n00", Backend: "MSR", Domain: "Total Power", Unit: "W", Resolution: "raw"}
	withPoints := power // raw: the samples are the columns
	withPoints.TNS, withPoints.V = []time.Duration{1e9, 2e9}, []float64{101.5, -0.25}
	withPoints.GapsNS = []time.Duration{1500000000, 1750000000}
	withPoints.Reduced = f64(2.25)
	buckets := withPoints // a rollup: the samples are the points
	buckets.Resolution, buckets.TNS, buckets.V = "10s", nil, nil
	buckets.Points = []Point{{T: 1e9, Min: 101.5, Max: 101.5, Mean: 101.5, Last: 101.5, Count: 1}, {T: 2e9, Min: 1, Max: 3, Mean: 2, Last: 3, Count: 4}}
	emptyPoints := power // omitempty drops every empty array: each decodes as nil, like the reference
	emptyPoints.TNS, emptyPoints.V, emptyPoints.Points = []time.Duration{}, []float64{}, []Point{}
	emptyGaps := withPoints
	emptyGaps.GapsNS = []time.Duration{}
	extreme := Frame{Resolution: "raw", TNS: []time.Duration{math.MinInt64, math.MaxInt64, 0}, V: []float64{0, 1, 2}}
	short := withPoints // columns of two lengths: the encoder writes them, the walk reads them
	short.V = short.V[:1]

	for name, r := range map[string]QueryResult{
		"zero value, frames null":  {},
		"frames empty":             {Frames: []Frame{}},
		"points null":              {Frames: []Frame{power}},
		"points empty":             {Frames: []Frame{emptyPoints}},
		"points, gaps, reduced":    {Frames: []Frame{withPoints, buckets}, SimNowNS: 4e9, NewestNS: 2e9},
		"empty gaps slice":         {Frames: []Frame{emptyGaps}},
		"several frames":           {Frames: []Frame{withPoints, power, emptyPoints, buckets, withPoints}, SimNowNS: 1},
		"negative and extreme int": {Frames: []Frame{{Points: []Point{{T: math.MinInt64, Count: -3}, {T: math.MaxInt64, Count: math.MaxInt64}}, GapsNS: []time.Duration{-1, 0, 999999999999999999, 1000000000000000000}}, extreme}, SimNowNS: -1, NewestNS: math.MinInt64},
		"empty labels":             {Frames: []Frame{{Points: []Point{{}}}}},
		"columns of two lengths":   {Frames: []Frame{short}},
		"degraded, missing null":   {Frames: []Frame{withPoints}, SimNowNS: 4e9, Degraded: &Degraded{Members: 4, Responded: 3}},
		"degraded, frames null": {Degraded: &Degraded{Members: 2, Missing: []MissingMember{
			{Member: "rack01", URL: "http://127.0.0.1:1/?a=1&b=<2>", Reason: `dial: "refused"`, State: "open"},
			{Member: "rack02", Reason: "breaker open"},
		}}},
	} {
		t.Run(name, func(t *testing.T) { checkCodec(t, r, true) })
	}
	// Shapes the encoder writes for a frame that holds them, as
	// encoding/json would, and the walk leaves to encoding/json: the
	// resolution decides between columns and points, and a column comes
	// with its twin.
	tOnly, vOnly, rawPoints, rollupColumns := power, power, buckets, withPoints
	tOnly.TNS, vOnly.V = []time.Duration{1}, []float64{1}
	rawPoints.Resolution, rollupColumns.Resolution = "raw", "1s"
	for name, f := range map[string]Frame{
		"t_ns without v": tOnly, "v without t_ns": vOnly, "a raw frame with points": rawPoints, "a rollup frame with columns": rollupColumns,
	} {
		t.Run(name, func(t *testing.T) { checkCodec(t, QueryResult{Frames: []Frame{f}}, false) })
	}
}

// TestCodecFloats walks the boundaries of encoding/json's float format:
// the switch to exponent form below 1e-6 and from 1e21, the e-07 → e-7
// rewrite, the sign of zero, and the shortest-round-trip digit counts.
func TestCodecFloats(t *testing.T) {
	edges := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 100, 123456789, 0.000001, 0.0000001, 1e-6, 1e-7, 9.999999e-7,
		1.5e-9, 1e-10, 1e-100, 1e20, 1e21, 9.99999999999999e20, 1.2345e22, 1e100, -1e21, -1e-7,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
		2.225073858507201e-308, 0.30000000000000004, 1.7976931348623157e308, 5e-324, 123456789.12345679,
		9007199254740993, 1 << 53, 4.35, 0.000001234567890123456, 299.99999999999994,
	}
	for _, v := range edges {
		// As a raw sample, as a rollup point (the edge in each position),
		// and as the reduction.
		checkCodec(t, rawFrame(v, v, -v), true)
		checkCodec(t, bucketsFrame(Point{Min: v, Max: 2, Mean: 3, Last: 4}, Point{Min: 1, Max: v, Mean: 3, Last: 4},
			Point{Min: 1, Max: 2, Mean: v, Last: 4}, Point{Min: 1, Max: 2, Mean: 3, Last: v}), true)
		r := oneFrame("raw")
		r.Frames[0].Reduced = f64(v)
		checkCodec(t, r, true)
	}
	// -0 and 0 are == but print differently.
	mixed := bucketsFrame(Point{Min: 0, Max: math.Copysign(0, -1), Mean: 0, Last: math.Copysign(0, -1)})
	if got := checkCodec(t, mixed, true); !bytes.Contains(got, []byte(`"min":0,"max":-0,"mean":0,"last":-0`)) {
		t.Fatalf("signs of zero lost: %s", got)
	}
	if got := checkCodec(t, rawFrame(0, math.Copysign(0, -1)), true); !bytes.Contains(got, []byte(`"v":[0,-0]`)) {
		t.Fatalf("signs of zero lost: %s", got)
	}
}

// checkFloatSpelling holds one value's spelling to encoding/json's, as a
// one-sample document and alone, and its decode to ParseFloat's bits.
func checkFloatSpelling(t *testing.T, v float64) {
	t.Helper()
	r := rawFrame(v)
	got, err := r.AppendJSON(nil)
	if err != nil {
		t.Fatalf("AppendJSON(%v): %v", v, err)
	}
	want, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("json.Marshal(%v): %v", v, err)
	}
	if !bytes.Equal(got, append(want, '\n')) {
		t.Fatalf("%v (bits %#x) spelled\ncodec %s json  %s", v, math.Float64bits(v), got, want)
	}
	tok := appendFloat(nil, v)
	d := scanner{b: tok}
	back, ok := d.float()
	if !ok || d.i != len(tok) || math.Float64bits(back) != math.Float64bits(v) {
		t.Fatalf("%s decodes to %v (bits %#x, ok %v), want bits %#x", tok, back, math.Float64bits(back), ok, math.Float64bits(v))
	}
}

// TestShortDecimalEdges walks the edges of the short-decimal paths: which
// values and tokens each takes, and that every one is spelled and read back
// as encoding/json and ParseFloat do. A sensor's integer milliwatts divided
// by 1000 must take both paths, or they serve nothing.
func TestShortDecimalEdges(t *testing.T) {
	for _, tc := range []struct {
		v     float64
		short bool
	}{
		{4.35, true}, {-4.35, true}, {1e-6, true}, {-1e-6, true}, {9.999999e-7, false}, {1e-7, false},
		{0.123456, true}, {0.1234567, false}, {1e15 - 1, true}, {1e15, false}, {99999999999999.9, true},
		{123456789.123456, true}, {1 << 53, false}, {0, false}, {math.Copysign(0, -1), false},
		{299.99999999999994, false}, {412.75, true}, {1e14, true}, {5e-324, false},
		// 0.1+0.2 in float64 arithmetic; as a Go constant expression it
		// would be exactly 0.3.
		{0.30000000000000004, false},
	} {
		_, short := appendShortDecimal(nil, tc.v)
		if short != tc.short {
			t.Errorf("%v: short-decimal path taken = %v, want %v", tc.v, short, tc.short)
		}
		checkFloatSpelling(t, tc.v)
	}
	for _, tc := range []struct {
		tok   string
		short bool
	}{
		{"4.35", true}, {"4.350", true}, {"0.000001", true}, {"-0", true}, {"-0.0", true}, {"0", true},
		{"999999999999999", true}, {"1000000000000000", false}, {"9007199254740992", false},
		{"12345678901234.5", true}, {"123456789012345.6", false}, {"0.30000000000000004", false},
		{"0.100000000000000", false}, {"-123456.789012345", true}, {"1e-7", false}, {"4.35E2", false},
		{"1" + strings.Repeat("0", 307), false}, {"1" + strings.Repeat("0", 308), false},
	} {
		want, _ := strconv.ParseFloat(tc.tok, 64)
		got, ok, parsed := readFloat([]byte(tc.tok), false)
		if short := parsed == 0; short != tc.short {
			t.Errorf("%s: short-decimal path taken = %v, want %v", tc.tok, short, tc.short)
		}
		if !ok || math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s decodes to %v (ok %v), ParseFloat says %v", tc.tok, got, ok, want)
		}
		// A split judges a token without an exponent by its length.
		plain := !strings.ContainsAny(tc.tok, "eE") && len(tc.tok) <= maxPlainFloatLen
		if _, ok, parsed := readFloat([]byte(tc.tok), true); !ok || (parsed == 0) != plain {
			t.Errorf("%s split: ok %v after %d ParseFloat calls; judged by its spelling alone: %v", tc.tok, ok, parsed, plain)
		}
	}
	for mw := 0; mw < 1_000_000; mw += 7 {
		v := float64(mw) / 1000
		if _, short := appendShortDecimal(nil, v); mw > 0 && !short {
			t.Fatalf("%d mW / 1000 = %v did not take the short-decimal path", mw, v)
		}
		if _, _, parsed := readFloat(appendFloat(nil, v), false); parsed != 0 {
			t.Fatalf("%s (%d mW) did not parse on the short-decimal path", appendFloat(nil, v), mw)
		}
		checkFloatSpelling(t, v)
	}
}

// readFloat reads tok as one number, on a decoding walk or a split one,
// and counts the calls that reach strconv.ParseFloat.
func readFloat(tok []byte, split bool) (v float64, ok bool, parsed int) {
	d := scanner{b: tok, split: split}
	v, ok = d.float()
	return v, ok && d.i == len(tok), d.parsed
}

// FuzzAppendFloat: for any float64 bit pattern JSON can carry, a
// one-sample document is spelled as encoding/json spells it and the number
// reads back to the same bits. Few bit patterns are short decimals, so the
// same input also names one, u/10^k, for the fast path's side.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range []float64{4.35, 1e-6, 1e15 - 1, 1e15, 1 << 53, math.Copysign(0, -1), 0.30000000000000004, 412.75, 5e-324} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		if v := math.Float64frombits(bits); finite(v) {
			checkFloatSpelling(t, v)
		}
		checkFloatSpelling(t, float64(bits%1e15)/pow10[bits>>60%7])
	})
}

// TestCodecRejectsNonFinite: JSON has no NaN or Inf. The reference
// refuses them and so does the codec — with an error that says where.
func TestCodecRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for i := 0; i < 6; i++ {
			one := Point{T: 6e9, Min: 1, Max: 1, Mean: 1, Last: 1, Count: 1}
			p := one
			p.T = 7e9
			r := bucketsFrame(one, p)
			switch i {
			case 0:
				r.Frames[0].Points[1].Min = v
			case 1:
				r.Frames[0].Points[1].Max = v
			case 2:
				r.Frames[0].Points[1].Mean = v
			case 3:
				r.Frames[0].Points[1].Last = v
			case 4:
				r = oneFrame("raw")
				r.Frames[0].TNS, r.Frames[0].V = []time.Duration{6e9, 7e9}, []float64{1, v}
			case 5:
				r.Frames[0].Reduced = f64(v)
			}
			if _, err := refEncode(r); err == nil {
				t.Fatalf("reference encoder accepts %v", v)
			}
			out, err := r.AppendJSON([]byte("kept"))
			if err == nil {
				t.Fatalf("AppendJSON accepts %v in position %d: %s", v, i, out)
			}
			if string(out) != "kept" {
				t.Errorf("failed AppendJSON left %q in the buffer", out)
			}
			if !strings.Contains(err.Error(), "n00/MSR/Total Power") {
				t.Errorf("error does not name the series: %v", err)
			}
			if i < 5 && !strings.Contains(err.Error(), "t_ns=7000000000") {
				t.Errorf("error does not name the point: %v", err)
			}
		}
	}
}

// oddStrings are labels the encoder must not write verbatim and the
// one-pass decoder must not read: each takes the encoding/json detour.
var oddStrings = []string{
	`say "hi"`, `back\slash`, "<script>", "a&b", "a>b", "tab\there", "nul\x00", "bell\a", "new\nline",
	"del\x7f", "µW", "°C", "温度", "\u2028", "\u2029", "bad\xffutf8", "\xc3", "emoji 🔥", "\ufffd",
}

func TestCodecStrings(t *testing.T) {
	plain := []string{"", " ", "W", "Total Power", "n00/card-1_a.b:c;d=e+f~g!h#i$j%k'l(m)n*o,p?q@r[s]t^u`v{w|x}y", "null", "]", "},{"}
	for _, s := range plain {
		checkCodec(t, QueryResult{Frames: []Frame{{Node: s, Backend: s, Domain: s, Unit: s, Resolution: s}}}, true)
	}
	for _, s := range oddStrings {
		for field := 0; field < 5; field++ {
			f := Frame{Node: "n", Backend: "b", Domain: "d", Unit: "u", Resolution: "raw", TNS: []time.Duration{1}, V: []float64{2}}
			*[]*string{&f.Node, &f.Backend, &f.Domain, &f.Unit, &f.Resolution}[field] = s
			checkCodec(t, QueryResult{Frames: []Frame{f}}, false)
		}
	}
}

// randomResult draws a document from rng: every shape the type allows,
// floats from raw bit patterns as well as from the edges, labels mostly
// plain. canonical reports whether the one-pass decoder must take it.
func randomResult(rng *rand.Rand) (r QueryResult, canonical bool) {
	canonical = true
	float := func() float64 {
		for {
			var v float64
			switch rng.Intn(4) {
			case 0:
				v = math.Float64frombits(rng.Uint64())
			case 1:
				v = float64(rng.Intn(2000)-1000) / 8
			case 2:
				v = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
			default:
				v = []float64{0, math.Copysign(0, -1), 1e21, 1e20, 1e-6, 1e-7, math.MaxFloat64, 5e-324}[rng.Intn(8)]
			}
			if finite(v) {
				return v
			}
		}
	}
	integer := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return int64(rng.Uint64())
		case 1:
			return 0
		default:
			return rng.Int63n(1e12)
		}
	}
	text := func() string {
		const alphabet = "abcXYZ019 _-./:#"
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	odd := func() string { return oddStrings[rng.Intn(len(oddStrings))] }
	label := func() string {
		if rng.Intn(40) == 0 {
			return odd()
		}
		return text()
	}
	if rng.Intn(10) > 0 {
		r.Frames = make([]Frame, rng.Intn(5))
		for i := range r.Frames {
			f := &r.Frames[i]
			f.Node, f.Backend, f.Domain, f.Unit, f.Resolution = label(), label(), label(), label(), label()
			if i > 0 && rng.Intn(2) == 0 { // labels repeat across frames
				f.Backend, f.Unit = r.Frames[i-1].Backend, r.Frames[i-1].Unit
			}
			if rng.Intn(2) == 0 {
				f.Resolution = rawResolution
			}
			if rng.Intn(3) == 0 {
				f.Reduced = f64(float())
			}
			// The shape the resolution gives, and now and then the other
			// one or columns of two lengths.
			columns := (f.Resolution == rawResolution) != (rng.Intn(40) == 0)
			switch {
			case rng.Intn(8) == 0: // a window with nothing in it
			case columns:
				f.TNS, f.V = make([]time.Duration, rng.Intn(6)), make([]float64, rng.Intn(6))
				if rng.Intn(16) > 0 {
					f.V = f.V[:min(len(f.TNS), len(f.V))]
					f.TNS = f.TNS[:len(f.V)]
				}
				for j := range f.TNS {
					f.TNS[j] = time.Duration(integer())
				}
				for j := range f.V {
					f.V[j] = float()
				}
			default:
				f.Points = make([]Point, rng.Intn(6))
				for j := range f.Points {
					f.Points[j] = Point{T: time.Duration(integer()), Min: float(), Max: float(), Mean: float(), Last: float(), Count: int(integer())}
					if rng.Intn(2) == 0 { // a bucket of one sample
						p := &f.Points[j]
						p.Max, p.Mean, p.Last, p.Count = p.Min, p.Min, p.Min, 1
					}
				}
			}
			if rng.Intn(3) == 0 {
				f.GapsNS = make([]time.Duration, rng.Intn(4))
				for j := range f.GapsNS {
					f.GapsNS[j] = time.Duration(integer())
				}
			}
		}
	}
	if rng.Intn(2) == 0 {
		r.SimNowNS, r.NewestNS = integer(), integer()
	}
	if rng.Intn(6) == 0 {
		r.Degraded = &Degraded{Members: rng.Intn(8), Responded: rng.Intn(8)}
		for i := rng.Intn(3); i > 0; i-- {
			r.Degraded.Missing = append(r.Degraded.Missing, MissingMember{Member: text(), URL: text(), Reason: odd()}) // encoding/json's on both sides
		}
	}
	for _, f := range r.Frames {
		for _, s := range []string{f.Node, f.Backend, f.Domain, f.Unit, f.Resolution} {
			for _, o := range oddStrings {
				canonical = canonical && s != o
			}
		}
		if f.Resolution == rawResolution {
			canonical = canonical && len(f.Points) == 0 && (len(f.TNS) > 0) == (len(f.V) > 0)
		} else {
			canonical = canonical && len(f.TNS) == 0 && len(f.V) == 0
		}
	}
	return r, canonical
}

func TestCodecRandomDocuments(t *testing.T) {
	rng := rand.New(rand.NewSource(20150908))
	n, fast := 4000, 0
	if testing.Short() {
		n = 500
	}
	for i := 0; i < n; i++ {
		r, canonical := randomResult(rng)
		checkCodec(t, r, canonical)
		if canonical {
			fast++
		}
	}
	if fast < n*3/4 {
		t.Fatalf("only %d of %d random documents were canonical: the generator no longer exercises the one-pass decoder", fast, n)
	}
}

// TestDecodeDeclinesWhatItDoesNotEmit: documents json.Unmarshal accepts
// but the encoder never writes, and spellings strconv would accept but
// JSON does not. The one-pass decoder must decline every one, and the
// public decoder must answer each as json.Unmarshal does.
func TestDecodeDeclinesWhatItDoesNotEmit(t *testing.T) {
	frame := func(res, rest string) string {
		return `{"frames":[{"node":"n","backend":"b","domain":"d","unit":"u","resolution":"` + res + `"` + rest + `}]}` + "\n"
	}
	point := func(min string) string {
		return frame("1s", `,"points":[{"t_ns":1,"min":`+min+`,"max":1,"mean":1,"last":1,"count":1}]`)
	}
	tns := func(v string) string { return frame("raw", `,"t_ns":[`+v+`],"v":[1]`) }
	value := func(v string) string { return frame("raw", `,"t_ns":[1],"v":[`+v+`]`) }
	// The shape's edges: valid documents the resolution does not give that
	// shape, a column without its twin or out of order, a bucket that does
	// not end where one ends; and documents in the shape, with the numbers
	// that take strconv. Each must be read whole, on one path or the
	// other; the second group, which AppendJSON writes, by the one-pass walk.
	shape := []string{
		frame("raw", `,"points":[{"t_ns":1,"min":1,"max":1,"mean":1,"last":1,"count":1}]`),
		frame("1s", `,"t_ns":[1],"v":[1]`),
		frame("raw", `,"t_ns":[1]`), frame("raw", `,"v":[1]`), frame("raw", `,"v":[1],"t_ns":[1]`),
		frame("raw", `,"t_ns":[1],"v":[1],"points":[]`), frame("raw", `,"t_ns":null,"v":null`),
		frame("raw", `,"t_ns":[1] ,"v":[1]`), frame("raw", `,"t_ns":[1],"v":[1],"t_ns":[2],"v":[2]`),
		frame("1s", `,"points":[{"t_ns":1,"min":1,"max":1,"mean":1,"last":1,"count":1,"count":2}]`),
		frame("1s", `,"points":[{"t_ns":1,"min":1,"max":1,"mean":1,"last":1,"count":1,"extra":1}]`),
	}
	shapeCanonical := []string{
		frame("1s", `,"points":[{"t_ns":1,"min":1,"max":1,"mean":1,"last":1,"count":10}]`),
		frame("1s", `,"points":[{"t_ns":1,"min":1.5,"max":1.55,"mean":1.5,"last":1.5,"count":1}]`),
		frame("raw", `,"t_ns":[1,2],"v":[1]`), frame("raw", `,"gaps_ns":[5]`),
		value("0,-0"), value("1e-7"), value("1234567890123456"), tns("1234567890123456789"),
	}
	for _, body := range slices.Concat([]string{
		// Valid, not canonical.
		`{ "frames": null }`, "{\"frames\":null}\n\n", " {\"frames\":null}", `{"frames":null,"extra":1}`,
		`{"sim_now_ns":5,"frames":null}`, `{"frames":null,"newest_ns":2,"sim_now_ns":1}`, `{}`, `null`,
		`{"frames":null,"frames":[]}`, `{"FRAMES":[]}`, `{"frames":[{}]}`, `{"frames":[{"node":"n"}]}`,
		`{"frames":[{"node":"a\u0062","backend":"b","domain":"d","unit":"u","resolution":"raw","points":null}]}`,
		`{"frames":[{"node":"a<b","backend":"b","domain":"d","unit":"u","resolution":"raw","points":null}]}`,
		`{"frames":[{"node":"µ","backend":"b","domain":"d","unit":"u","resolution":"raw","points":null}]}`,
		`{"frames":[{"node":"n","backend":"b","domain":"d","unit":"u","resolution":"raw","points":null,"gaps_ns":null}]}`,
		`{"frames":[{"node":"n","backend":"b","domain":"d","unit":"u","resolution":"raw","reduced":null,"points":[]}]}`,
		`{"frames":[{"node":"n","backend":"b","domain":"d","unit":"u","resolution":"raw","points":[{"t_ns":1}]}]}`,
		frame("raw", `,"t_ns":[],"v":[]`), frame("1s", `,"points":[]`),
		`{"frames":null,"degraded":null} `, `{"frames":null,"degraded":{"members":1},"degraded":{"members":2}}`,
		// Not JSON, or not this type: the error must be encoding/json's.
		``, `{`, `}`, `{"frames":[}`, `{"frames":[],}`, `{"frames":[,]}`, `{"frames":null,"degraded":}`,
		`{"frames":null,"degraded":[1]}`, `{"frames":null,"degraded":{"members":"two"}}`, `{"frames":null}x`,
		`{"frames":[{"node":"n","backend":"b","domain":"d","unit":"u","resolution":"raw","points":[],"gaps_ns":[1,]}]}`,
		`{"frames":[{"node":"n","backend":"b","domain":"d","unit":"u","resolution":"raw","points":[],"gaps_ns":[1.5]}]}`,
		`{"frames":[{"node":"unterminated`, "{\"frames\":[{\"node\":\"raw\ttab\"}]}",
		frame("raw", `,"t_ns":[1],"v":[1`), frame("raw", `,"t_ns":[1,],"v":[1]`), frame("raw", `,"t_ns":[,1],"v":[1]`),
		point("+1"), point(".5"), point("1."), point("01"), point("-"), point("-01"), point("0x1p3"), point("Inf"),
		point("NaN"), point("1_0"), point("1e"), point("1e+"), point("1E5"), point("-0"), point("1e999"),
		point("-1e999"), point("1e-999"), point(`"1"`), point("true"),
		value("+1"), value("01"), value("1e999"), value("1,"), value(",1"), value("1 2"), value("null"),
		tns("1.0"), tns("1e3"), tns("-0"), tns("9223372036854775807"), tns("9223372036854775808"),
		tns("-9223372036854775808"), tns("-9223372036854775809"), tns("99999999999999999999999"), tns("01"),
		tns("18446744073709551616"), tns("-18446744073709551617"), point("1" + strings.Repeat("0", 308)), point("1" + strings.Repeat("0", 307) + ".5"),
		point("1" + strings.Repeat("0", 309)), point("-1" + strings.Repeat("0", 308) + ".0"), point("0." + strings.Repeat("0", 400) + "1"),
		value("1" + strings.Repeat("0", 309)), value("0." + strings.Repeat("0", 400) + "1"),
		`{"frames":[{"node":"n","backend":"b","domain":"d","unit":"u","resolution":"raw","points":null,"gaps_ns":[]}]}`,
	}, shape, shapeCanonical) {
		checkAgree(t, []byte(body))
		checkSplit(t, []byte(body))
	}
	for _, body := range shapeCanonical {
		var r QueryResult
		if !decodeCanonical([]byte(body), &r) {
			t.Errorf("one-pass decoder declined %s", body)
		}
	}
	// The first group above, and every number the fast path has no
	// business parsing, must not have been answered by the one-pass pass.
	for _, body := range append([]string{
		`{ "frames": null }`, `{"frames":null,"extra":1}`, `{"sim_now_ns":5,"frames":null}`,
		point("+1"), point(".5"), point("1."), point("01"), point("0x1p3"), point("Inf"), point("1_0"),
		point("1e999"), tns("1.0"), tns("9223372036854775808"), tns("01"), tns("18446744073709551616"),
		value("+1"), value("01"), value("1e999"),
	}, shape...) {
		var r QueryResult
		if decodeCanonical([]byte(body), &r) {
			t.Errorf("one-pass decoder accepted %s", body)
		}
	}
}

// TestDecodeSingleByteMutations damages real documents one byte at a
// time — the cheapest source of almost-canonical input — and holds the
// decoder to json.Unmarshal on each.
func TestDecodeSingleByteMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	replacements := []byte(`"\{}[]:,-+.eE0159 nulx` + "\n\x00\xff")
	rounds := 20000
	if testing.Short() {
		rounds = 2000
	}
	for _, doc := range seedDocuments(t) {
		for i := 0; i < rounds/4; i++ {
			mutated := bytes.Clone(doc)
			at := rng.Intn(len(mutated))
			switch rng.Intn(3) {
			case 0:
				mutated[at] = replacements[rng.Intn(len(replacements))]
			case 1:
				mutated = append(mutated[:at], mutated[at+1:]...)
			default:
				mutated = append(mutated[:at+1], mutated[at:]...)
				mutated[at] = replacements[rng.Intn(len(replacements))]
			}
			checkAgree(t, mutated)
			checkSplit(t, mutated)
		}
	}
}

// seedDocuments are real /query bodies: what the fuzzer and the mutation
// test start from.
func seedDocuments(t testing.TB) [][]byte {
	t.Helper()
	full := rawFrame(101.5, 101.5)
	full.Frames[0].TNS = []time.Duration{1e9, 2e9}
	full.Frames[0].Reduced = f64(99.25)
	full.Frames[0].GapsNS = []time.Duration{1500000000, 2500000000}
	full.Frames = append(full.Frames, Frame{Node: "n01", Backend: "MSR", Domain: "Total Power", Unit: "W", Resolution: "raw"},
		Frame{Node: "n01", Backend: "MSR", Domain: "Total Power", Unit: "W", Resolution: "1s", Reduced: f64(1e21),
			Points: []Point{{T: 3e9, Min: -0.5, Max: 1e21, Mean: 1e-7, Last: 3, Count: 60}}})
	full.SimNowNS, full.NewestNS = 4e9, 3e9
	degraded := full
	degraded.Degraded = &Degraded{Members: 2, Responded: 1, Missing: []MissingMember{{Member: "rack01", Reason: "breaker open", State: "open"}}}
	escaped := rawFrame(2)
	escaped.Frames[0].Unit = "°C <&>"
	// A window that holds nothing, at both resolutions, and a raw frame
	// carrying points: the spelling raw samples had before they were
	// columns, which the walk declines and encoding/json reads.
	empty := QueryResult{Frames: []Frame{oneFrame("raw").Frames[0], oneFrame("10s").Frames[0]}, SimNowNS: 4e9}
	rawPoints := oneFrame("raw")
	rawPoints.Frames[0].Points = []Point{{T: 1e9, Min: 2, Max: 2, Mean: 2, Last: 2, Count: 1}}
	var docs [][]byte
	// Then a history reply in the stack's own numbers and the same series
	// at 1 s: a column-shaped raw reply and a rollup reply.
	for _, r := range []QueryResult{{}, {Frames: []Frame{}}, full, degraded, escaped, quantizedFrame(6), rollupFrame(4), empty, rawPoints} {
		b, err := r.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, b)
	}
	return docs
}

// FuzzDecodeQueryResult: on arbitrary bytes the decoder and
// json.Unmarshal agree on whether the body is acceptable, on the error
// when it is not and on the value when it is.
func FuzzDecodeQueryResult(f *testing.F) {
	for _, doc := range seedDocuments(f) {
		f.Add(doc)
	}
	f.Add([]byte(`{ "frames": [ { "node": "n", "points": [ { "t_ns": 1, "min": 1e999 } ] } ] }`))
	f.Fuzz(func(t *testing.T, body []byte) { checkAgree(t, body) })
}

// FuzzSplitQueryResult: on arbitrary bytes the split and the decoder
// agree — a body splits exactly when it decodes, with the same error when
// it does not, and the frames decoded one by one from the bytes they were
// kept as are the decoded document's (checkSplit).
func FuzzSplitQueryResult(f *testing.F) {
	for _, doc := range seedDocuments(f) {
		f.Add(doc)
	}
	// What TestQueryOnTheWire reads off a socket, and what it read before
	// an empty window spelled no array, an escaped label, both nulls, a
	// float past float64 and a t_ns one digit short of int64's 19.
	const labels = `"node":"n00","backend":"MSR","domain":"Total Power","unit":"W","resolution":"raw"`
	for _, body := range []string{
		`{"frames":[{` + labels + `,"points":[]}],"sim_now_ns":500000000000}` + "\n",
		`{"frames":[{` + labels + `,"points":[],"gaps_ns":[1500000000]}],"sim_now_ns":500000000000}` + "\n",
		`{"frames":[{` + labels + `}],"sim_now_ns":500000000000}` + "\n",
		`{"frames":[{` + labels + `,"gaps_ns":[1500000000]}],"sim_now_ns":500000000000}` + "\n",
		`{"frames":[]}` + "\n",
		`{"frames":[{"node":"a\u003cb","backend":"MSR","domain":"d","unit":"\u00b0C","resolution":"raw","points":null}]}`,
		`{"frames":null}`,
		`{"frames":[{` + labels + `,"points":null}]}`,
		`{"frames":[{` + labels + `,"points":[{"t_ns":1,"min":1e999,"max":1,"mean":1,"last":1,"count":1}]}]}`,
		`{"frames":[{` + labels + `,"reduced":2.5,"points":[{"t_ns":1234567890123456789,"min":1,"max":1,"mean":1,"last":1,"count":1}]}]}`,
		`{"frames":[{` + labels + `,"reduced":2.5,"t_ns":[1234567890123456789],"v":[1e999]}]}`,
		`{ "frames": [ { "node": "n", "points": [ { "t_ns": 1, "min": 1e999 } ] } ] }`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkSplit(t, body) })
}

// quantizedFrame is a history reply as the stack serves one: n raw samples
// 50 ms apart under twelve-digit timestamps, valued in quarter watts, so
// every number is on the short-decimal paths.
func quantizedFrame(n int) QueryResult {
	r := oneFrame("raw")
	f := &r.Frames[0]
	for i := range n {
		f.TNS, f.V = append(f.TNS, time.Duration(100e9+int64(i)*50e6)), append(f.V, float64(600+i*7919%400)/4)
	}
	r.SimNowNS, r.NewestNS = int64(f.TNS[n-1])+50e6, int64(f.TNS[n-1])
	return r
}

// quantizedPoints is quantizedFrame's reply in the spelling raw samples had
// before they were columns: each one a point object whose four statistics
// are its value, with a count of one.
func quantizedPoints(n int) QueryResult {
	r := quantizedFrame(n)
	f := &r.Frames[0]
	for i, v := range f.V {
		f.Points = append(f.Points, Point{T: f.TNS[i], Min: v, Max: v, Mean: v, Last: v, Count: 1})
	}
	f.TNS, f.V = nil, nil
	return r
}

// rollupFrame is the same series at 1 s: buckets of 20 samples whose min,
// max, mean and last differ. A mean of 20 quarter watts is a multiple of
// 1/80, a short decimal too.
func rollupFrame(n int) QueryResult {
	points := make([]Point, n)
	for i := range points {
		q := 600 + i*7919%400
		points[i] = Point{T: time.Duration(100e9 + int64(i)*1e9), Min: float64(q) / 4, Max: float64(q+50) / 4,
			Mean: float64(20*q+481) / 80, Last: float64(q+13) / 4, Count: 20}
	}
	r := bucketsFrame(points...)
	r.SimNowNS, r.NewestNS = int64(points[n-1].T)+1e9, int64(points[n-1].T)
	return r
}

// bigFrame is a history reply: one series, n raw samples, six in seven of
// them valued past what the short-decimal paths take — the strconv row.
func bigFrame(n int) QueryResult {
	r := oneFrame("raw")
	f := &r.Frames[0]
	for i := range n {
		f.TNS, f.V = append(f.TNS, time.Duration(i)*1e9), append(f.V, 180+float64(i%977)/7)
	}
	r.SimNowNS, r.NewestNS = int64(n)*1e9, int64(n-1)*1e9
	return r
}

// manyFrames is a fleet-wide recent reply: n series, 8 samples each.
func manyFrames(n int) QueryResult {
	r := QueryResult{Frames: make([]Frame, n), SimNowNS: 9e9, NewestNS: 8e9}
	for i := range r.Frames {
		f := Frame{Node: fmt.Sprintf("n%05d", i), Backend: "rack", Domain: "Total Power", Unit: "W", Resolution: "raw"}
		for j := range 8 {
			f.TNS, f.V = append(f.TNS, time.Duration(j)*1e9), append(f.V, float64((i*7919+j)%1000)/4)
		}
		f.Reduced = f64(f.V[7])
		r.Frames[i] = f
	}
	return r
}

// TestWireBytesPerSample is the wire's tripwire, the serving-side twin of
// the store's TestBlockBytesPerSample: a history reply in the stack's own
// numbers costs at most 24 bytes a sample. Spelled as point objects, raw
// samples cost 82.
func TestWireBytesPerSample(t *testing.T) {
	const n = 10240
	body, err := quantizedFrame(n).AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	perSample := float64(len(body)) / n
	t.Logf("%d samples in %d bytes: %.1f B/sample", n, len(body), perSample)
	if perSample > 24 {
		t.Errorf("a raw history reply costs %.1f B/sample on the wire, gate 24", perSample)
	}
}

// TestCodecAllocations is the gate on what the codec is for. Encoding
// into a warm buffer allocates nothing; decoding allocates per frame
// (its slices, its node label, its reduction), never per point.
func TestCodecAllocations(t *testing.T) {
	history := bigFrame(10240)
	buf, err := history.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(5, func() { buf, _ = history.AppendJSON(buf[:0]) }); n != 0 {
		t.Errorf("encoding a 10k-point frame into a warm buffer: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(5, func() { _, _ = history.AppendJSON(nil) }); n > 4 {
		t.Errorf("encoding a 10k-point frame into no buffer: %v allocations, want a handful (append alone takes twenty)", n)
	}
	if n := testing.AllocsPerRun(5, func() { _, _ = DecodeQueryResult(buf) }); n > 8 {
		t.Errorf("decoding a 10k-point frame: %v allocations, want a handful", n)
	}
	const frames = 512
	recent, err := manyFrames(frames).AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(5, func() { _, _ = DecodeQueryResult(recent) }); n > 3*frames+32 {
		t.Errorf("decoding %d frames of 8 points: %v allocations, want at most 3 per frame", frames, n)
	}
}

// TestSplitAllocations is the gate on what the split is for: a frame that
// is passed on costs its node label and its share of the frame list, and
// nothing per point — no slice, no reduction, no float conversion.
func TestSplitAllocations(t *testing.T) {
	const frames = 512
	recent, err := manyFrames(frames).AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(5, func() { _, _, _ = SplitQueryResult(recent) }); n > frames+32 {
		t.Errorf("splitting %d frames of 8 points: %v allocations, want at most one per frame", frames, n)
	}
	history, err := bigFrame(10240).AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(5, func() { _, _, _ = SplitQueryResult(history) }); n > 8 {
		t.Errorf("splitting a 10k-point frame: %v allocations, want a handful", n)
	}
	w, _, _ := SplitQueryResult(recent)
	buf, _ := w.AppendJSON(nil)
	if n := testing.AllocsPerRun(5, func() { buf, _ = w.AppendJSON(buf[:0]) }); n != 0 || !bytes.Equal(buf, recent) {
		t.Errorf("writing the split document into a warm buffer: %v allocations, want 0 (same bytes: %v)", n, bytes.Equal(buf, recent))
	}
}

// TestDecodeCopiesStrings: the client reuses nothing of the body today,
// but a decoded label that aliased it would change under whoever does.
func TestDecodeCopiesStrings(t *testing.T) {
	body, _ := manyFrames(3).AppendJSON(nil)
	got, err := DecodeQueryResult(body)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := refDecode(body)
	for i := range body {
		body[i] = 'X'
	}
	if !sameResult(got, want) {
		t.Fatalf("decoded value changed with the body: %+v", got.Frames[0])
	}
}

var (
	benchBytes  []byte
	benchResult QueryResult
	benchWire   WireResult
)

func benchmarkEncode(b *testing.B, r QueryResult, codec bool) {
	buf, _ := r.AppendJSON(nil)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if codec {
			buf, _ = r.AppendJSON(buf[:0])
		} else {
			buf, _ = refEncode(r)
		}
	}
	benchBytes = buf
}

func benchmarkDecode(b *testing.B, r QueryResult, codec bool) {
	body, _ := r.AppendJSON(nil)
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if codec {
			benchResult, _ = DecodeQueryResult(body)
		} else {
			benchResult, _ = refDecode(body)
		}
	}
}

// benchmarkSplit checks a body and keeps its frames as bytes, what envfedd
// pays per member body; its encoding/json twin decodes the body and
// encodes each frame again.
func benchmarkSplit(b *testing.B, r QueryResult, codec bool) {
	body, _ := r.AppendJSON(nil)
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if codec {
			benchWire, _, _ = SplitQueryResult(body)
			continue
		}
		doc, _ := refDecode(body)
		benchWire = WireResult{Frames: make([]WireFrame, len(doc.Frames))}
		for j := range doc.Frames {
			benchWire.Frames[j].JSON, _ = json.Marshal(&doc.Frames[j])
		}
	}
}

// History is the strconv row (bigFrame); Quantized and Recent are what the
// stack serves, raw samples whose every number is a short decimal; Rollup
// is the stack's buckets. DecodeQuantizedPointsJSON is the gate's fixed
// reference: encoding/json reading Quantized's samples as point objects.
func BenchmarkEncodeHistory(b *testing.B)       { benchmarkEncode(b, bigFrame(10240), true) }
func BenchmarkEncodeHistoryJSON(b *testing.B)   { benchmarkEncode(b, bigFrame(10240), false) }
func BenchmarkDecodeHistory(b *testing.B)       { benchmarkDecode(b, bigFrame(10240), true) }
func BenchmarkDecodeHistoryJSON(b *testing.B)   { benchmarkDecode(b, bigFrame(10240), false) }
func BenchmarkEncodeQuantized(b *testing.B)     { benchmarkEncode(b, quantizedFrame(10240), true) }
func BenchmarkEncodeQuantizedJSON(b *testing.B) { benchmarkEncode(b, quantizedFrame(10240), false) }
func BenchmarkDecodeQuantized(b *testing.B)     { benchmarkDecode(b, quantizedFrame(10240), true) }
func BenchmarkDecodeQuantizedJSON(b *testing.B) { benchmarkDecode(b, quantizedFrame(10240), false) }
func BenchmarkDecodeQuantizedPointsJSON(b *testing.B) {
	benchmarkDecode(b, quantizedPoints(10240), false)
}
func BenchmarkSplitQuantized(b *testing.B)     { benchmarkSplit(b, quantizedFrame(10240), true) }
func BenchmarkSplitQuantizedJSON(b *testing.B) { benchmarkSplit(b, quantizedFrame(10240), false) }
func BenchmarkEncodeRollup(b *testing.B)       { benchmarkEncode(b, rollupFrame(10240), true) }
func BenchmarkEncodeRollupJSON(b *testing.B)   { benchmarkEncode(b, rollupFrame(10240), false) }
func BenchmarkDecodeRollup(b *testing.B)       { benchmarkDecode(b, rollupFrame(10240), true) }
func BenchmarkDecodeRollupJSON(b *testing.B)   { benchmarkDecode(b, rollupFrame(10240), false) }
func BenchmarkSplitRollup(b *testing.B)        { benchmarkSplit(b, rollupFrame(10240), true) }
func BenchmarkSplitRollupJSON(b *testing.B)    { benchmarkSplit(b, rollupFrame(10240), false) }
func BenchmarkEncodeRecent(b *testing.B)       { benchmarkEncode(b, manyFrames(512), true) }
func BenchmarkEncodeRecentJSON(b *testing.B)   { benchmarkEncode(b, manyFrames(512), false) }
func BenchmarkDecodeRecent(b *testing.B)       { benchmarkDecode(b, manyFrames(512), true) }
func BenchmarkDecodeRecentJSON(b *testing.B)   { benchmarkDecode(b, manyFrames(512), false) }
func BenchmarkSplitRecent(b *testing.B)        { benchmarkSplit(b, manyFrames(512), true) }
