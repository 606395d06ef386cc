package telemetry

import (
	"sort"
	"time"

	"envmon/internal/telemetry/storage"
)

// Point is one raw sample — an alias of the storage layer's type, so ring
// contents hand off to snapshots and chunks without conversion.
type Point = storage.Point

// Bucket is one rollup bucket: the incremental summary of every sample
// whose time falls in [Start, Start+period). An alias of the storage
// layer's type.
type Bucket = storage.Bucket

// stream is one series' entries of one kind — raw samples, gap markers, or
// one rollup level's buckets — and that kind's position against the storage
// engine's count seam. It is the only code that computes the seam.
//
// Every entry has an absolute index 0,1,2,… in the order the series
// produced it (for a bucket: the order the series opened it at that level);
// total is one past the newest. The newest entries live in a fixed ring —
// allocated once, so the steady-state push never allocates — and pushing
// into a full ring evicts the oldest. sealed is the watermark: block chunks
// hold absolute indexes [0, sealed), the ring serves from live() on, and the
// two meet with no overlap and no hole — byte-identical to a store whose
// rings never evict. The engine keeps that true by compacting before any
// push for which pressed() holds, so every unsealed entry stays resident.
// In a memory-only store sealed stays 0 and the seam degenerates to "serve
// the ring".
type stream[T any] struct {
	buf    []T
	head   int    // ring position of the oldest resident entry
	n      int    // resident entries
	total  uint64 // entries ever pushed
	sealed uint64 // leading entries sealed in blocks
}

func newStream[T any](capacity int) stream[T] {
	return stream[T]{buf: make([]T, capacity)}
}

// slot returns the ring position i entries past head, for i <= len(buf).
// head is always inside the ring, so one compare wraps it: the ingest path
// pays no division for a ring whose size is not a power of two.
func (r *stream[T]) slot(i int) int {
	if i += r.head; i >= len(r.buf) {
		i -= len(r.buf)
	}
	return i
}

// push appends v, evicting the oldest entry from a full ring. A ring of size
// 0 (a rollup level of RollupCapacity 1: its open bucket only) counts v and
// holds nothing.
func (r *stream[T]) push(v T) {
	r.total++
	switch {
	case r.n < len(r.buf):
		r.buf[r.slot(r.n)] = v
		r.n++
	case r.n > 0:
		r.buf[r.head] = v
		r.head = r.slot(1)
	}
}

// at returns the i-th resident entry in age order (0 = oldest). i must be
// < len().
func (r *stream[T]) at(i int) T { return r.buf[r.slot(i)] }

func (r *stream[T]) len() int { return r.n }

// live returns the ring position of the first entry past the seam: resident
// entries below it are already served from blocks.
func (r *stream[T]) live() int {
	if oldest := r.total - uint64(r.n); r.sealed > oldest {
		return int(r.sealed - oldest)
	}
	return 0
}

// window returns the ring positions [i, j) of the live entries whose instant
// at(v) lies in [lo, hi) — hi <= 0 means unbounded. Entries are in time order
// (ingest refuses anything else), so both ends are found by bisection: a
// window costs the entries it holds, not the ring.
func (r *stream[T]) window(lo, hi time.Duration, at func(T) time.Duration) (i, j int) {
	live := r.live()
	i = live + sort.Search(r.n-live, func(k int) bool { return at(r.at(live+k)) >= lo })
	j = r.n
	if hi > 0 {
		j = i + sort.Search(r.n-i, func(k int) bool { return at(r.at(i+k)) >= hi })
	}
	return i, j
}

// sealedFrom reports whether blocks may hold an entry whose instant is at
// least lo, so that a window starting at lo has to read them. The ring
// answers while it holds anything: the entry just below the seam, if still
// resident, is the newest sealed one, and otherwise no sealed entry is newer
// than the oldest resident. Only an empty ring leaves it to the block index.
func (r *stream[T]) sealedFrom(lo time.Duration, at func(T) time.Duration) bool {
	switch {
	case r.sealed == 0:
		return false
	case r.n == 0:
		return true
	}
	return at(r.at(max(r.live()-1, 0))) >= lo
}

// pressed reports whether one more push would evict an unsealed entry.
func (r *stream[T]) pressed() bool {
	return r.n == len(r.buf) && r.live() == 0
}

// room returns how many pushes the ring takes before pressed() holds: the
// free slots, then one eviction per resident entry already below the seam.
// A run of samples is judged against it up front, where one sample asks
// pressed().
func (r *stream[T]) room() int { return len(r.buf) - r.n + r.live() }

// pending returns, for a block writer, the unsealed entries below absolute
// index end and the absolute index of the first. pressed() guarantees they
// are all resident; the clamp only matters if a capacity was shrunk between
// runs, where the overflow is surfaced as an index hole rather than silently
// misattributed.
func (r *stream[T]) pending(end uint64) (start uint64, out []T) {
	oldest := r.total - uint64(r.n)
	start = max(r.sealed, oldest)
	for i := start; i < end; i++ {
		out = append(out, r.at(int(i-oldest)))
	}
	return start, out
}

// restore seeds an empty stream from a block index: n entries exist, all
// sealed, none resident.
func (r *stream[T]) restore(n uint64) { r.total, r.sealed = n, n }
