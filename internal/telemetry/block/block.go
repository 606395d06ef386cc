// Package block is the sealed tier of the telemetry storage engine:
// immutable on-disk files of compressed chunks, produced by compacting the
// head's unpersisted tail (a storage.SeriesSnapshot per series).
//
// A block file holds, per series: the raw points as a Gorilla-style chunk
// (delta-of-delta timestamps; values XOR-coded, or as exact-scale integers
// when every value is one), the gap markers as a varint chunk, and each
// rollup level's sealed buckets as six such columns plus a snapshot of the
// open tail bucket. Every chunk is labelled with the absolute index range
// it covers in its series' stream, which is what lets the query layer
// stitch blocks and the in-memory head together with no overlap and no
// holes, and lets WAL replay skip records a block already holds.
//
// The writer writes format version 3, whose index carries a CRC-32C per
// chunk (a chunk that fails it is a read error and is never decoded) and
// whose float columns each name their mode, XOR or scaled (see
// storage.EncodePoints). Version 2 files, the same less the modes, read
// through the same decoders with every column XOR; version 1 files
// (buckets as varints and raw words, no chunk checksums) stay readable
// too. Open refuses a file whose magic or version it does not know.
//
// Files are written once — temp file, fsync, atomic rename — and never
// modified; readers keep them open and serve chunk reads by offset. The
// Store is the directory-level view: every block file in sequence order,
// whose indexes Each folds into the per-series aggregate (persisted
// counts, newest instants, rollup tails) that recovery seeds the head from.
package block

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"envmon/internal/telemetry/storage"
)

const (
	magic    = "ENVB"
	trailer  = "BKNE"
	version  = 3 // what writeFile writes; Open reads 1, 2 and 3
	numLvl   = storage.NumRollupLevels
	headerSz = 4 + 4         // magic + version
	footerSz = 4 + 4 + 8 + 4 // index crc + index len + index off + trailer
)

// Agg is the per-series aggregate across every block in a store: how much
// of the series is persisted and the state recovery re-seeds the head
// with.
type Agg struct {
	Unit string
	// Points/Gaps are the persisted counts: block chunks cover absolute
	// indexes [0, Points) and [0, Gaps).
	Points uint64
	Gaps   uint64
	// Buckets counts the persisted sealed buckets per rollup level.
	Buckets [numLvl]uint64
	// Tails holds each level's open-bucket snapshot from the newest block
	// containing the series (nil when the level had no buckets).
	Tails [numLvl]*storage.Bucket
	// MinT is the oldest persisted point instant (valid when Points > 0).
	MinT time.Duration
	// LastT / LastGapT are the newest persisted instants.
	LastT    time.Duration
	LastGapT time.Duration
}

// chunkRef locates one chunk in its file. sum is the chunk's CRC-32C,
// which a version 1 index does not carry.
type chunkRef struct {
	off, length uint64
	sum         uint32
}

type levelEntry struct {
	startBucket uint64
	numClosed   uint64
	chunk       chunkRef
	tail        *storage.Bucket
}

type seriesEntry struct {
	key        storage.SeriesKey
	unit       string
	startPoint uint64
	numPoints  uint64
	minT, maxT time.Duration
	lastGapT   time.Duration
	startGap   uint64
	numGaps    uint64
	pt, gap    chunkRef
	levels     [numLvl]levelEntry
}

type file struct {
	f       *os.File
	seq     uint64
	size    int64
	version uint32
	entries map[storage.SeriesKey]*seriesEntry
}

// Store is the read view over a block directory plus the writer that
// appends new blocks. Safe for concurrent use.
type Store struct {
	mu      sync.RWMutex
	dir     string
	files   []*file
	nextSeq uint64
	bytes   int64
	closed  bool
}

// The two calls that make a sealed file's rename durable, as variables so
// tests can stand in a filesystem that refuses them.
var (
	openDir = os.Open
	syncDir = (*os.File).Sync
)

// errClosed is what a scan after Close returns.
var errClosed = errors.New("block: store closed")

// ErrNotBlock and ErrUnknownVersion are what Open reports for a file
// whose header does not start with the block magic, or names a format
// version this reader does not know.
var (
	ErrNotBlock       = errors.New("block: bad magic")
	ErrUnknownVersion = errors.New("block: unknown format version")
)

// Open scans dir (created if missing) and opens every block file in
// sequence order. Stray temporary files from an interrupted write are
// removed.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("block: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("block: %w", err)
	}
	s := &Store{dir: dir, nextSeq: 1}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		if !strings.HasPrefix(name, "b-") || !strings.HasSuffix(name, ".blk") {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "b-"), ".blk"), 10, 64)
		if err != nil {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		bf, err := openFile(filepath.Join(dir, blockName(seq)), seq)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.publish(bf)
	}
	return s, nil
}

func blockName(seq uint64) string { return fmt.Sprintf("b-%08d.blk", seq) }

// publish adds an opened file to the store view. Caller holds the write
// lock (or owns s solely).
func (s *Store) publish(bf *file) {
	s.files = append(s.files, bf)
	s.bytes += bf.size
	if bf.seq >= s.nextSeq {
		s.nextSeq = bf.seq + 1
	}
}

// Append writes one block holding the snapshots and publishes it. Empty
// snapshots (nothing new anywhere) are a no-op. A failed write publishes
// nothing and keeps the block's sequence number, so a retry rewrites the
// same file.
func (s *Store) Append(snaps []storage.SeriesSnapshot) error {
	nonEmpty := snaps[:0:0]
	for _, sn := range snaps {
		if len(sn.Points) > 0 || len(sn.Gaps) > 0 || anyClosed(sn) {
			nonEmpty = append(nonEmpty, sn)
		}
	}
	if len(nonEmpty) == 0 {
		return nil
	}
	sort.Slice(nonEmpty, func(i, j int) bool { return storage.KeyLess(nonEmpty[i].Key, nonEmpty[j].Key) })

	s.mu.Lock()
	defer s.mu.Unlock()
	seq := s.nextSeq
	path := filepath.Join(s.dir, blockName(seq))
	if err := writeFile(path, nonEmpty); err != nil {
		return err
	}
	bf, err := openFile(path, seq)
	if err != nil {
		return err
	}
	s.publish(bf)
	return nil
}

func anyClosed(sn storage.SeriesSnapshot) bool {
	for _, lv := range sn.Levels {
		if len(lv.Closed) > 0 {
			return true
		}
	}
	return false
}

func writeFile(path string, snaps []storage.SeriesSnapshot) error {
	buf := make([]byte, 0, 64<<10)
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint32(buf, version)

	// The chunks go to buf and their index entries to idx in one pass; idx
	// follows the chunks in the file.
	idx := make([]byte, 0, 4<<10)
	idx = binary.LittleEndian.AppendUint32(idx, uint32(len(snaps)))
	for _, sn := range snaps {
		idx = storage.AppendString(idx, sn.Key.Node)
		idx = storage.AppendString(idx, sn.Key.Backend)
		idx = storage.AppendString(idx, sn.Key.Domain)
		idx = storage.AppendString(idx, sn.Unit)
		idx = binary.AppendUvarint(idx, sn.StartPoint)
		idx = binary.AppendUvarint(idx, uint64(len(sn.Points)))
		var minT, maxT time.Duration
		if len(sn.Points) > 0 {
			minT, maxT = sn.Points[0].T, sn.Points[len(sn.Points)-1].T
		}
		idx = binary.AppendVarint(idx, int64(minT))
		idx = binary.AppendVarint(idx, int64(maxT))
		idx = binary.AppendVarint(idx, int64(sn.LastGapT))
		idx = binary.AppendUvarint(idx, sn.StartGap)
		idx = binary.AppendUvarint(idx, uint64(len(sn.Gaps)))
		off := len(buf)
		buf = storage.EncodePoints(buf, sn.Points)
		idx = chunkAt(buf, off).append(idx)
		off = len(buf)
		buf = storage.EncodeGaps(buf, sn.Gaps)
		idx = chunkAt(buf, off).append(idx)
		for _, lv := range sn.Levels {
			idx = binary.AppendUvarint(idx, lv.StartBucket)
			idx = binary.AppendUvarint(idx, uint64(len(lv.Closed)))
			off = len(buf)
			buf = storage.EncodeBuckets(buf, lv.Closed)
			idx = chunkAt(buf, off).append(idx)
			if lv.Tail != nil {
				idx = append(idx, 1)
				idx = binary.AppendVarint(idx, int64(lv.Tail.Start))
				idx = binary.AppendUvarint(idx, uint64(lv.Tail.Count))
				idx = binary.LittleEndian.AppendUint64(idx, math.Float64bits(lv.Tail.Min))
				idx = binary.LittleEndian.AppendUint64(idx, math.Float64bits(lv.Tail.Max))
				idx = binary.LittleEndian.AppendUint64(idx, math.Float64bits(lv.Tail.Sum))
				idx = binary.LittleEndian.AppendUint64(idx, math.Float64bits(lv.Tail.Last))
			} else {
				idx = append(idx, 0)
			}
		}
	}
	indexOff := uint64(len(buf))
	buf = append(buf, idx...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(idx, storage.Castagnoli))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(idx)))
	buf = binary.LittleEndian.AppendUint64(buf, indexOff)
	buf = append(buf, trailer...)

	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("block: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("block: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("block: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("block: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("block: %w", err)
	}
	// Until the directory is synced the rename may not survive a crash,
	// and the caller is about to drop the journal that also holds the data.
	d, err := openDir(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("block: %w", err)
	}
	err = syncDir(d)
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("block: %w", err)
	}
	return nil
}

func openFile(path string, seq uint64) (*file, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("block: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("block: %w", err)
	}
	size := st.Size()
	if size < int64(headerSz+footerSz) {
		f.Close()
		return nil, fmt.Errorf("block: %s: too short", path)
	}
	header := make([]byte, headerSz)
	if _, err := f.ReadAt(header, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("block: %w", err)
	}
	if string(header[:4]) != magic {
		f.Close()
		return nil, fmt.Errorf("%w: %s starts %q", ErrNotBlock, path, header[:4])
	}
	v := binary.LittleEndian.Uint32(header[4:])
	if v < 1 || v > version {
		f.Close()
		return nil, fmt.Errorf("%w: %s is version %d", ErrUnknownVersion, path, v)
	}
	footer := make([]byte, footerSz)
	if _, err := f.ReadAt(footer, size-int64(footerSz)); err != nil {
		f.Close()
		return nil, fmt.Errorf("block: %w", err)
	}
	if string(footer[16:]) != trailer {
		f.Close()
		return nil, fmt.Errorf("block: %s: bad trailer", path)
	}
	idxSum := binary.LittleEndian.Uint32(footer[:4])
	idxLen := binary.LittleEndian.Uint32(footer[4:8])
	idxOff := binary.LittleEndian.Uint64(footer[8:16])
	if idxOff+uint64(idxLen) > uint64(size) {
		f.Close()
		return nil, fmt.Errorf("block: %s: index out of range", path)
	}
	idx := make([]byte, idxLen)
	if _, err := f.ReadAt(idx, int64(idxOff)); err != nil {
		f.Close()
		return nil, fmt.Errorf("block: %w", err)
	}
	if crc32.Checksum(idx, storage.Castagnoli) != idxSum {
		f.Close()
		return nil, fmt.Errorf("block: %s: index checksum mismatch", path)
	}
	bf := &file{f: f, seq: seq, size: size, version: v, entries: map[storage.SeriesKey]*seriesEntry{}}
	if err := bf.parseIndex(idx, idxOff); err != nil {
		f.Close()
		return nil, fmt.Errorf("block: %s: %w", path, err)
	}
	return bf, nil
}

// parseIndex reads the index into bf.entries. Every chunk it names must
// lie in the chunk section, between the header and the index at end: a
// chunk is read into a buffer of its stated length before its checksum
// can refuse it. And every entry count is believed only as far as its
// chunk's bytes could hold that many entries, since a scan sizes its
// destination from the counts before it decodes a byte.
func (bf *file) parseIndex(idx []byte, end uint64) error {
	if len(idx) < 4 {
		return errors.New("index truncated")
	}
	n := binary.LittleEndian.Uint32(idx)
	r := storage.Reader{P: idx[4:]}
	for i := uint32(0); i < n; i++ {
		e := &seriesEntry{}
		e.key.Node = r.Str()
		e.key.Backend = r.Str()
		e.key.Domain = r.Str()
		e.unit = r.Str()
		e.startPoint = r.Uvarint()
		e.numPoints = r.Uvarint()
		e.minT = time.Duration(r.Varint())
		e.maxT = time.Duration(r.Varint())
		e.lastGapT = time.Duration(r.Varint())
		e.startGap = r.Uvarint()
		e.numGaps = r.Uvarint()
		e.pt = bf.readRef(&r)
		e.gap = bf.readRef(&r)
		inside := e.pt.within(end) && e.gap.within(end)
		counted := e.pt.holds(e.numPoints, minPointBits) && e.gap.holds(e.numGaps, minGapBits)
		for l := 0; l < numLvl; l++ {
			le := &e.levels[l]
			le.startBucket = r.Uvarint()
			le.numClosed = r.Uvarint()
			le.chunk = bf.readRef(&r)
			inside = inside && le.chunk.within(end)
			counted = counted && le.chunk.holds(le.numClosed, minBucketBits)
			if r.Byte() == 1 {
				tail := &storage.Bucket{
					Start: time.Duration(r.Varint()),
					Count: int(r.Uvarint()),
				}
				tail.Min = r.Float64()
				tail.Max = r.Float64()
				tail.Sum = r.Float64()
				tail.Last = r.Float64()
				le.tail = tail
			}
		}
		if r.Err != nil {
			return fmt.Errorf("index truncated: %w", r.Err)
		}
		if !inside {
			return fmt.Errorf("series %v: a chunk lies outside bytes [%d, %d)", e.key, headerSz, end)
		}
		if !counted {
			return fmt.Errorf("series %v: an entry count exceeds what its chunk can hold", e.key)
		}
		bf.entries[e.key] = e
	}
	return nil
}

// The fewest bits one entry of each kind of chunk costs in any format
// version: a point one bit of timestamp and one of value, a bucket one bit
// in each of its six columns, a gap marker one varint byte.
const (
	minPointBits  = 2
	minBucketBits = 6
	minGapBits    = 8
)

// holds reports whether the chunk is long enough for n entries of at
// least minBits each. Only meaningful for a chunk that lies within its
// file, whose length cannot overflow.
func (c chunkRef) holds(n, minBits uint64) bool { return n <= c.length*8/minBits }

// chunkAt labels the chunk buf holds from off on.
func chunkAt(buf []byte, off int) chunkRef {
	c := buf[off:]
	return chunkRef{uint64(off), uint64(len(c)), crc32.Checksum(c, storage.Castagnoli)}
}

// append writes the reference as a version 2 or 3 index spells it.
func (c chunkRef) append(idx []byte) []byte {
	idx = binary.AppendUvarint(idx, c.off)
	idx = binary.AppendUvarint(idx, c.length)
	return binary.LittleEndian.AppendUint32(idx, c.sum)
}

// within reports whether the chunk lies in bytes [headerSz, end).
func (c chunkRef) within(end uint64) bool {
	return c.off >= headerSz && c.off <= end && c.length <= end-c.off
}

// readRef reads a chunk reference as the file's version spells it.
func (bf *file) readRef(r *storage.Reader) chunkRef {
	c := chunkRef{off: r.Uvarint(), length: r.Uvarint()}
	if bf.version >= 2 {
		c.sum = r.Uint32()
	}
	return c
}

// chunk reads a chunk, and from version 2 on checks it against its
// CRC-32C, so that a flipped bit is a read error and never a decoded value.
func (bf *file) chunk(c chunkRef) ([]byte, error) {
	buf := make([]byte, c.length)
	if _, err := bf.f.ReadAt(buf, int64(c.off)); err != nil {
		return nil, fmt.Errorf("block: reading chunk: %w", err)
	}
	if bf.version >= 2 && crc32.Checksum(buf, storage.Castagnoli) != c.sum {
		return nil, fmt.Errorf("block: %s: chunk at byte %d fails its checksum", bf.f.Name(), c.off)
	}
	return buf, nil
}

// decodePoints decodes a point chunk in its file's format: v1 and v2
// point chunks are alike, with no column modes.
func decodePoints(version uint32, dst []storage.Point, chunk []byte, n int) ([]storage.Point, error) {
	if version < 3 {
		return storage.DecodePointsV2(dst, chunk, n)
	}
	return storage.DecodePoints(dst, chunk, n)
}

// decodeBuckets decodes a level chunk in its file's format.
func decodeBuckets(version uint32, dst []storage.Bucket, chunk []byte, n int) ([]storage.Bucket, error) {
	switch version {
	case 1:
		return storage.DecodeBucketsV1(dst, chunk, n)
	case 2:
		return storage.DecodeBucketsV2(dst, chunk, n)
	}
	return storage.DecodeBuckets(dst, chunk, n)
}

// decodeGaps decodes a gap chunk, which every format version spells alike.
func decodeGaps(_ uint32, dst []time.Duration, chunk []byte, n int) ([]time.Duration, error) {
	return storage.DecodeGaps(dst, chunk, n)
}

// Each calls fn for every series with persisted data, in key order, with
// its aggregate over every block file: folded here, from the files' indexes
// in sequence order, because recovery is its one reader.
func (s *Store) Each(fn func(key storage.SeriesKey, a Agg)) {
	agg := map[storage.SeriesKey]*Agg{}
	s.mu.RLock()
	for _, bf := range s.files {
		for key, e := range bf.entries {
			a := agg[key]
			if a == nil {
				a = &Agg{}
				agg[key] = a
			}
			a.fold(e)
		}
	}
	s.mu.RUnlock()
	keys := make([]storage.SeriesKey, 0, len(agg))
	for k := range agg {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return storage.KeyLess(keys[i], keys[j]) })
	for _, k := range keys {
		fn(k, *agg[k])
	}
}

// fold adds one file's entry for the series to a, files taken oldest
// first: the unit and each level's tail come from the newest file that
// carries one, MinT from the oldest holding points, and each count with
// its newest instant from the entry that reaches furthest.
func (a *Agg) fold(e *seriesEntry) {
	a.Unit = e.unit
	if e.numPoints > 0 {
		if a.Points == 0 {
			a.MinT = e.minT
		}
		if end := e.startPoint + e.numPoints; end > a.Points {
			a.Points = end
			a.LastT = e.maxT
		}
	}
	if end := e.startGap + e.numGaps; end > a.Gaps {
		a.Gaps = end
		a.LastGapT = e.lastGapT
	}
	for l := 0; l < numLvl; l++ {
		le := &e.levels[l]
		if end := le.startBucket + le.numClosed; end > a.Buckets[l] {
			a.Buckets[l] = end
		}
		if le.tail != nil {
			a.Tails[l] = le.tail
		}
	}
}

// Decode buffers for each, one pool per kind of entry: a history query
// decodes its series' chunk in every block file into one, and fn takes
// entries by value, so no buffer outlives its scan.
var pointBufs, bucketBufs, gapBufs sync.Pool

// each is the store's one scan loop. For every block file holding key, in
// sequence (= ingest) order: locate the entry's chunk of one kind, decode its
// n entries in the file's format, and pass fn those whose instant at(v) lies
// in [lo, hi) — hi <= 0 means unbounded. locate answers n == 0 for a file
// with nothing to scan.
// A series' entries are in time order (ingest rejects anything else), so the
// window is a sub-slice found by bisection: at runs O(log n) times a chunk,
// and fn is the only per-entry call.
func each[T any](s *Store, key storage.SeriesKey, lo, hi time.Duration,
	locate func(*seriesEntry) (c chunkRef, n uint64),
	decode func(version uint32, dst []T, chunk []byte, n int) ([]T, error),
	at func(T) time.Duration, fn func(T), bufs *sync.Pool) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return errClosed
	}
	buf, _ := bufs.Get().(*[]T)
	if buf == nil {
		buf = new([]T)
	}
	scratch := (*buf)[:0]
	defer func() {
		*buf = scratch[:0]
		bufs.Put(buf)
	}()
	for _, bf := range s.files {
		e, ok := bf.entries[key]
		if !ok {
			continue
		}
		c, n := locate(e)
		if n == 0 {
			continue
		}
		chunk, err := bf.chunk(c)
		if err != nil {
			return err
		}
		scratch, err = decode(bf.version, scratch[:0], chunk, int(n))
		if err != nil {
			return err
		}
		in := scratch[sort.Search(len(scratch), func(i int) bool { return at(scratch[i]) >= lo }):]
		if hi > 0 {
			in = in[:sort.Search(len(in), func(i int) bool { return at(in[i]) >= hi })]
		}
		for _, v := range in {
			fn(v)
		}
	}
	return nil
}

// EachPoint streams the series' persisted points inside [from, to) — to
// <= 0 means unbounded — in ingest order across blocks.
func (s *Store) EachPoint(key storage.SeriesKey, from, to time.Duration, fn func(storage.Point)) error {
	return each(s, key, from, to, func(e *seriesEntry) (chunkRef, uint64) {
		return e.points(from, to)
	}, decodePoints, func(p storage.Point) time.Duration { return p.T }, fn, &pointBufs)
}

// points locates the entry's point chunk for a scan of [from, to): n == 0
// when the whole chunk lies outside the window.
func (e *seriesEntry) points(from, to time.Duration) (c chunkRef, n uint64) {
	if e.maxT < from || (to > 0 && e.minT >= to) {
		return chunkRef{}, 0
	}
	return e.pt, e.numPoints
}

// PointsIn reports, from the indexes alone, how many points the chunks
// EachPoint reads for [from, to) hold: a bound on what it streams, for
// sizing the destination once.
func (s *Store) PointsIn(key storage.SeriesKey, from, to time.Duration) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, bf := range s.files {
		if e, ok := bf.entries[key]; ok {
			_, k := e.points(from, to)
			n += int(k)
		}
	}
	return n
}

// EachClosedBucket streams the series' persisted sealed buckets at the
// level, in order, for every bucket overlapping the window: buckets whose
// [Start, Start+period) intersects [from, to). A chunk's closed buckets all
// end by its open tail's start, so a chunk whose tail starts at or before
// from is skipped unread.
func (s *Store) EachClosedBucket(key storage.SeriesKey, level int, period, from, to time.Duration, fn func(storage.Bucket)) error {
	// Start+period > from, as a lower bound on Start.
	return each(s, key, from-period+1, to, func(e *seriesEntry) (chunkRef, uint64) {
		le := &e.levels[level]
		if le.tail != nil && le.tail.Start <= from {
			return chunkRef{}, 0
		}
		return le.chunk, le.numClosed
	}, decodeBuckets, func(b storage.Bucket) time.Duration { return b.Start }, fn, &bucketBufs)
}

// EachGap streams the series' persisted gap markers inside [from, to) in
// order. A chunk whose newest marker (the index's lastGapT) is before from
// is skipped unread.
func (s *Store) EachGap(key storage.SeriesKey, from, to time.Duration, fn func(time.Duration)) error {
	return each(s, key, from, to, func(e *seriesEntry) (chunkRef, uint64) {
		if e.lastGapT < from {
			return chunkRef{}, 0
		}
		return e.gap, e.numGaps
	}, decodeGaps, func(g time.Duration) time.Duration { return g }, fn, &gapBufs)
}

// NumBlocks reports how many block files the store serves.
func (s *Store) NumBlocks() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.files)
}

// Bytes reports the total size of every block file.
func (s *Store) Bytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes
}

// Close closes every block file; a second Close does nothing. Every scan
// after it fails; NumBlocks and Bytes still describe the files.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	for _, bf := range s.files {
		if err := bf.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
