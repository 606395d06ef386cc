package storage

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
)

// TestReaderRoundTripAndTruncation: a Reader gives back what the append
// side wrote, and cut anywhere short of its end it fails with
// io.ErrUnexpectedEOF — once, stickily, answering zeros from then on.
func TestReaderRoundTripAndTruncation(t *testing.T) {
	p := binary.AppendUvarint(nil, 1<<40)
	p = binary.AppendVarint(p, -123456789)
	p = AppendString(p, "c401-003")
	p = AppendString(p, "")
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(-0.25))
	p = append(p, 7)
	read := func(r *Reader) (uint64, int64, string, string, float64, byte) {
		return r.Uvarint(), r.Varint(), r.Str(), r.Str(), r.Float64(), r.Byte()
	}
	r := Reader{P: p}
	if u, v, s, e, f, b := read(&r); u != 1<<40 || v != -123456789 || s != "c401-003" || e != "" || f != -0.25 || b != 7 ||
		r.Err != nil || len(r.P) != 0 {
		t.Fatalf("round trip: %v %v %q %q %v %v, err %v, %d bytes left", u, v, s, e, f, b, r.Err, len(r.P))
	}
	for n := 0; n < len(p); n++ {
		r := Reader{P: p[:n]}
		if _, _, _, _, _, b := read(&r); !errors.Is(r.Err, io.ErrUnexpectedEOF) || b != 0 {
			t.Errorf("cut at %d of %d: err %v, last value %d", n, len(p), r.Err, b)
		}
	}
	// A length prefix longer than what follows it, and a varint that never ends.
	for _, bad := range [][]byte{{5, 'a', 'b'}, {0x80, 0x80}, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}} {
		r := Reader{P: bad}
		if s := r.Str(); s != "" || !errors.Is(r.Err, io.ErrUnexpectedEOF) {
			t.Errorf("% x: %q, err %v", bad, s, r.Err)
		}
	}
}
