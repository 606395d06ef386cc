package storage

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
)

// The byte vocabulary the journal's records and the blocks' indexes share:
// uvarint and zig-zag varint integers, length-prefixed strings,
// little-endian float64 bit patterns, CRC-32C checksums.

// Castagnoli is the CRC-32C table both on-disk formats checksum with.
var Castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendString appends s as a uvarint length followed by its bytes.
func AppendString(p []byte, s string) []byte {
	p = binary.AppendUvarint(p, uint64(len(s)))
	return append(p, s...)
}

// Reader decodes the vocabulary from P, front to back. Its error is
// sticky: the first value P is too short for (or a varint that overflows)
// sets Err to io.ErrUnexpectedEOF, and that and every later read answer
// zero — so a caller decodes a whole record and checks Err once.
type Reader struct {
	P   []byte
	Err error
}

// take consumes n bytes, or fails the reader when fewer are left.
func (r *Reader) take(n uint64) []byte {
	if r.Err != nil || uint64(len(r.P)) < n {
		r.Err = io.ErrUnexpectedEOF
		return nil
	}
	b := r.P[:n]
	r.P = r.P[n:]
	return b
}

// Uvarint reads one unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.P)
	if r.Err != nil || n <= 0 {
		r.Err = io.ErrUnexpectedEOF
		return 0
	}
	r.P = r.P[n:]
	return v
}

// Varint reads one zig-zag signed varint.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.P)
	if r.Err != nil || n <= 0 {
		r.Err = io.ErrUnexpectedEOF
		return 0
	}
	r.P = r.P[n:]
	return v
}

// Str reads what AppendString wrote. (Not String: a Reader is not a
// fmt.Stringer, and printing one must not consume it.)
func (r *Reader) Str() string { return string(r.take(r.Uvarint())) }

// Float64 reads eight bytes as a little-endian IEEE 754 bit pattern.
func (r *Reader) Float64() float64 {
	if b := r.take(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}
