package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// refWriter and refReader are the bit I/O the word-at-a-time bitWriter
// and bitReader replaced: one bit per call, the model they are held to.
type refWriter struct {
	buf   []byte
	nbits uint
}

func (w *refWriter) writeBits(v uint64, n uint) {
	for i := n; i > 0; i-- {
		if w.nbits == 0 {
			w.buf = append(w.buf, 0)
		}
		if (v>>(i-1))&1 != 0 {
			w.buf[len(w.buf)-1] |= 1 << (7 - w.nbits)
		}
		w.nbits = (w.nbits + 1) & 7
	}
}

type refReader struct {
	buf []byte
	pos uint
}

func (r *refReader) readBits(n uint) (uint64, error) {
	var v uint64
	for i := uint(0); i < n; i++ {
		byteIdx := r.pos >> 3
		if byteIdx >= uint(len(r.buf)) {
			return 0, fmt.Errorf("storage: bitstream truncated at bit %d", r.pos)
		}
		v = v<<1 | uint64(r.buf[byteIdx]>>(7-(r.pos&7)))&1
		r.pos++
	}
	return v, nil
}

// peek is the next 64 bits, zeros past the end, left in place.
func (r refReader) peek() uint64 {
	var v uint64
	for i := 0; i < 64; i++ {
		b, _ := r.readBits(1) // 0 past the end
		v = v<<1 | b
	}
	return v
}

// TestBitIOMatchesPerBitReference writes random values of random widths
// (1 to 64) through both writers and requires the same bytes; then reads
// every stream back in random chunkings, whole and cut short at every byte
// length, by readBit, readBits, or peek then skip, and requires the same
// values, the same 64 bits ahead, and the same failing read, with the same
// error, from both readers.
func TestBitIOMatchesPerBitReference(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	width := func() uint { return uint(1 + rng.Intn(64)) }
	for round := 0; round < 300; round++ {
		var w bitWriter
		var ref refWriter
		total := uint(0)
		for k := rng.Intn(40); k > 0; k-- {
			v, n := rng.Uint64(), width()
			if rng.Intn(4) == 0 {
				w.writeBit(v & 1)
				ref.writeBits(v&1, 1)
				total++
				continue
			}
			w.writeBits(v, n)
			ref.writeBits(v, n)
			total += n
		}
		got := w.bytes()
		if !bytes.Equal(got, ref.buf) {
			t.Fatalf("round %d: writer packed %x, reference %x", round, got, ref.buf)
		}
		for cut := 0; cut <= len(got); cut++ {
			r := bitReader{buf: got[:cut]}
			rr := refReader{buf: ref.buf[:cut]}
			for read := uint(0); read < total+64; {
				if got, want := r.peek(), rr.peek(); got != want {
					t.Fatalf("round %d cut %d: peek at bit %d = %x, reference %x", round, cut, read, got, want)
				}
				n := width()
				var v uint64
				switch k := rng.Intn(4); {
				case n == 1 || k == 0:
					n, v = 1, r.readBit()
				case k == 1:
					v = r.peek() >> (64 - n)
					r.skip(n)
					if r.err != nil {
						v = 0
					}
				default:
					v = r.readBits(n)
				}
				want, werr := rr.readBits(n)
				if (r.err == nil) != (werr == nil) || r.err != nil && r.err.Error() != werr.Error() {
					t.Fatalf("round %d cut %d: read of %d bits at bit %d: error %v, reference %v", round, cut, n, read, r.err, werr)
				}
				if werr != nil {
					if v != 0 || r.readBits(1) != 0 {
						t.Fatalf("round %d cut %d: a failed reader still answers bits", round, cut)
					}
					break
				}
				if v != want {
					t.Fatalf("round %d cut %d: %d bits at bit %d = %x, reference %x", round, cut, n, read, v, want)
				}
				read += n
			}
		}
	}
}
