package storage

import (
	"encoding/binary"
	"fmt"
)

// bitWriter packs bits MSB-first onto a byte slice, a 64-bit word at a
// time: bits collect left-aligned in acc and reach buf eight bytes at once.
// The zero value is ready to use; bytes flushes the pending bits with the
// final partial byte zero-padded.
type bitWriter struct {
	buf []byte
	acc uint64 // pending bits, left-aligned
	n   uint   // pending bits in acc, 0..63
}

func (w *bitWriter) writeBit(bit uint64) { w.writeBits(bit, 1) }

// writeBits writes the low n bits of v, most significant first. n <= 64.
func (w *bitWriter) writeBits(v uint64, n uint) {
	if n < 64 {
		v &= 1<<n - 1
	}
	free := 64 - w.n
	if n < free {
		w.acc |= v << (free - n)
		w.n += n
		return
	}
	// acc fills: its last free bits are v's top ones, and the rest of v
	// starts the next word.
	w.n = n - free
	w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc|v>>w.n)
	w.acc = 0
	if w.n > 0 {
		w.acc = v << (64 - w.n)
	}
}

// bytes flushes the pending bits and returns the packed buffer.
func (w *bitWriter) bytes() []byte {
	for ; w.n > 0; w.n -= min(w.n, 8) {
		w.buf = append(w.buf, byte(w.acc>>56))
		w.acc <<= 8
	}
	return w.buf
}

// bitReader consumes bits MSB-first from a byte slice, loading the word
// that holds the next bits for each read. Its error is sticky, like
// Reader's: a read past the end sets err, names the first missing bit, and
// leaves the reader at the end, so it and every later read answer zero and
// a decoder checks err once per entry.
type bitReader struct {
	buf []byte
	pos uint // absolute bit position
	err error
}

func (r *bitReader) readBit() uint64 {
	i := r.pos >> 3
	if i >= uint(len(r.buf)) {
		r.fail(r.truncated())
		return 0
	}
	bit := uint64(r.buf[i]>>(7-(r.pos&7))) & 1
	r.pos++
	return bit
}

// readBits reads n bits, n <= 64, as the low bits of the result.
func (r *bitReader) readBits(n uint) uint64 {
	if n == 0 {
		return 0
	}
	if r.pos+n > uint(len(r.buf))*8 {
		r.fail(r.truncated())
		return 0
	}
	i, s := r.pos>>3, r.pos&7
	var word uint64
	if i+8 <= uint(len(r.buf)) {
		word = binary.BigEndian.Uint64(r.buf[i:])
	} else {
		for k := i; k < i+8; k++ {
			word <<= 8
			if k < uint(len(r.buf)) {
				word |= uint64(r.buf[k])
			}
		}
	}
	word <<= s
	if n > 64-s {
		// The read's last bits are the top s of the ninth byte, which the
		// bounds check above proved is there.
		word |= uint64(r.buf[i+8]) >> (8 - s)
	}
	r.pos += n
	return word >> (64 - n)
}

// peek returns the next 64 bits left-aligned, zeros past the end, without
// consuming them.
func (r *bitReader) peek() uint64 {
	i, s := r.pos>>3, r.pos&7
	if i+8 < uint(len(r.buf)) {
		return binary.BigEndian.Uint64(r.buf[i:])<<s | uint64(r.buf[i+8])>>(8-s)
	}
	// Near the end: the bytes that are there, then zeros.
	var word uint64
	for k := i; k < i+8; k++ {
		word <<= 8
		if k < uint(len(r.buf)) {
			word |= uint64(r.buf[k])
		}
	}
	return word << s
}

// skip consumes n bits.
func (r *bitReader) skip(n uint) {
	if r.pos+n > uint(len(r.buf))*8 {
		r.fail(r.truncated())
		return
	}
	r.pos += n
}

// fail records err unless an earlier one is set, and moves the reader to
// the end so that nothing more is read.
func (r *bitReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.pos = uint(len(r.buf)) * 8
}

func (r *bitReader) truncated() error {
	return fmt.Errorf("storage: bitstream truncated at bit %d", uint(len(r.buf))*8)
}
