// Package wal is the write-ahead log of the telemetry storage engine: an
// append-only journal of ingested samples, runs of samples and gap markers,
// segmented per store shard, that makes every acknowledged ingest durable
// before the head's in-memory rings absorb it.
//
// Layout under the WAL root:
//
//	wal/<shard>/<seq>.wal
//
// Each shard directory belongs to one lock-striped store shard, so WAL
// appends ride the shard lock the ingest path already holds — no extra
// synchronization, and append throughput scales with the shard count.
//
// Records are self-describing: every sample and gap record carries its
// series' *absolute index* in that series' ingest stream (sample #0, #1,
// …). Replay therefore needs no coordination with the block store beyond
// "how many leading entries are already persisted": a record whose index
// is below that watermark is a duplicate from an interrupted compaction
// and is skipped, one at the watermark is applied, and ordering across
// segments — even across restarts that changed the shard count — is
// recovered by sorting on (series, index). Crash-anywhere safety falls
// out of this idempotence rather than from a careful deletion protocol.
//
// A run record carries consecutive samples of one series — what a cursor
// flush holds — under one frame: the first sample's absolute index, a count,
// the first time, then an unsigned step and a value per sample. Replay
// expands it into the per-sample entries above, so nothing downstream knows
// the difference, but a record is the unit of durability: all of a run
// replays or none of it.
//
// Framing is length + CRC32C per record. A torn tail (the record being
// written when the process died) fails its checksum and cleanly ends
// replay of that segment; everything acknowledged before it is intact,
// because an append returns only once the whole frame is in memory the
// kernel owns.
//
// On Linux that memory is the file's own page cache, reached without a
// system call: the open segment is preallocated (fallocate) one 256 KiB
// window ahead of its logical end, the window is mapped MAP_SHARED, and an
// append frames the record and copies it in. The preallocated tail is
// zeros, which replay reads as the end of the segment, and Close cuts it
// off. Elsewhere, and on a filesystem that refuses fallocate or mmap, each
// record is one write(2) instead (segment.go). Either way an acknowledged
// record survives the process being killed; it survives the host going
// down only after Sync. Because blocks are allocated before they are
// mapped, a full disk is an error from the append — a rejected ingest —
// never a SIGBUS.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"envmon/internal/telemetry/storage"
	"envmon/internal/trace"
)

const (
	// magic opens every segment file.
	magic   = "ENVW"
	version = 1

	recSeries = 1
	recSample = 2
	recGap    = 3
	recRun    = 4
)

// WAL is one store's journal: a set of per-shard appenders under a common
// root directory.
type WAL struct {
	dir    string
	shards []*Shard
}

// Shard is one shard's appender. Callers must serialize access per shard
// (the store's shard lock does this naturally).
type Shard struct {
	dir       string
	seg       segment
	seq       uint64
	appended  int64 // bytes ever journaled, across rotations
	rotations uint64
	nextRef   uint64
	buf       []byte
	// unopened is set from the moment a rotation lets its segment go until
	// the successor is open: past Rotate's return only when it failed (a
	// full disk), and then AppendSeries opens the successor first.
	unopened bool

	// segments opened with each appender, across rotations
	mappedSegs, writeSegs uint64
}

// Create opens fresh segments for the given shard count under dir,
// creating directories as needed. Existing segments are left alone (new
// segments get higher sequence numbers); call Replay first, and Rotate
// each shard once what was replayed is persisted elsewhere, which unlinks
// the recovered segments.
func Create(dir string, shards int) (*WAL, error) {
	w := &WAL{dir: dir}
	for i := 0; i < shards; i++ {
		sd := filepath.Join(dir, strconv.Itoa(i))
		if err := os.MkdirAll(sd, 0o755); err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		seqs, err := segmentSeqs(sd)
		if err != nil {
			return nil, err
		}
		next := uint64(1)
		if n := len(seqs); n > 0 {
			next = seqs[n-1] + 1
		}
		sh := &Shard{dir: sd, seq: next}
		if err := sh.openSegment(); err != nil {
			w.Close()
			return nil, err
		}
		w.shards = append(w.shards, sh)
	}
	return w, nil
}

// Shard returns the i-th shard appender.
func (w *WAL) Shard(i int) *Shard { return w.shards[i] }

// Sync flushes every shard's segment to stable storage.
func (w *WAL) Sync() error {
	for _, sh := range w.shards {
		if err := sh.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// Close closes every shard's open segment (without deleting anything),
// leaving each file exactly as long as its Size.
func (w *WAL) Close() error {
	var first error
	for _, sh := range w.shards {
		if err := sh.seg.close(); err != nil && first == nil {
			first = fmt.Errorf("wal: %w", err)
		}
	}
	return first
}

func (sh *Shard) openSegment() error {
	seg, err := createSegment(filepath.Join(sh.dir, fmt.Sprintf("%08d.wal", sh.seq)))
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	sh.seg = seg
	if seg.mapped() {
		sh.mappedSegs++
	} else {
		sh.writeSegs++
	}
	sh.appended += seg.size
	sh.nextRef = 0
	sh.unopened = false
	return nil
}

// Size reports the shard's live segment bytes: the header and every
// acknowledged record, not the space preallocated ahead of them.
func (sh *Shard) Size() int64 { return sh.seg.size }

// Mapped reports whether the open segment takes appends through the mapped
// window (false: one write(2) per record).
func (sh *Shard) Mapped() bool { return sh.seg.mapped() }

// Segments reports how many segments this shard has opened with each
// appender, across rotations.
func (sh *Shard) Segments() (mapped, write uint64) { return sh.mappedSegs, sh.writeSegs }

// Appended reports the total bytes ever written to this shard's journal,
// across rotations — the journaling I/O volume, where Size is the live
// footprint. Synchronized like every other Shard method: by the caller's
// per-shard serialization.
func (sh *Shard) Appended() int64 { return sh.appended }

// Rotations reports how many times this shard's segment has rotated.
func (sh *Shard) Rotations() uint64 { return sh.rotations }

// Sync flushes the open segment to stable storage.
func (sh *Shard) Sync() error {
	if sh.seg.f == nil {
		return nil
	}
	return sh.seg.f.Sync()
}

// Rotate seals a compaction: the open segment's records are all persisted
// in a block now, so it is unmapped, closed and deleted along with any
// older segments, and a fresh segment begins. Series refs reset — the next
// append of each series re-declares it in the new segment.
//
// That holds when Rotate fails, too. The old segment is let go first, so
// after an error (a disk too full for the successor's first window, above
// all) the shard has no segment and no ref is good; the caller re-declares
// its series as after any rotation, and the first AppendSeries opens the
// successor before it writes — once the disk lets it.
func (sh *Shard) Rotate() error {
	sh.unopened = true
	if err := sh.seg.release(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	seqs, err := segmentSeqs(sh.dir)
	if err != nil {
		return err
	}
	for _, seq := range seqs {
		if seq <= sh.seq {
			if err := os.Remove(filepath.Join(sh.dir, fmt.Sprintf("%08d.wal", seq))); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
		}
	}
	sh.seq++
	sh.rotations++
	return sh.openSegment()
}

// AppendSeries declares a series in the current segment and returns the
// ref later sample/gap records use. Refs are segment-scoped. After a Rotate
// that failed there is no current segment, and this opens it: a declaration
// is every segment's first record.
func (sh *Shard) AppendSeries(key storage.SeriesKey, unit string) (uint64, error) {
	if sh.unopened {
		if err := sh.openSegment(); err != nil {
			return 0, err
		}
	}
	sh.nextRef++
	ref := sh.nextRef
	p := sh.begin()
	p = append(p, recSeries)
	p = binary.AppendUvarint(p, ref)
	p = storage.AppendString(p, key.Node)
	p = storage.AppendString(p, key.Backend)
	p = storage.AppendString(p, key.Domain)
	p = storage.AppendString(p, unit)
	return ref, sh.commit(p)
}

// AppendSample journals one sample: ref from AppendSeries, idx the
// sample's absolute index in its series' stream.
func (sh *Shard) AppendSample(ref, idx uint64, t time.Duration, v float64) error {
	p := sh.begin()
	p = append(p, recSample)
	p = binary.AppendUvarint(p, ref)
	p = binary.AppendUvarint(p, idx)
	p = binary.AppendVarint(p, int64(t))
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(v))
	return sh.commit(p)
}

// AppendRun journals consecutive samples of one series (at least one),
// offset added to each time, as one record: one frame and one checksum, so
// replay sees all of the run or none of it. idx is the first sample's
// absolute index. The caller has checked that times do not decrease; the
// record spells each as an unsigned step from the one before and could not
// say otherwise.
func (sh *Shard) AppendRun(ref, idx uint64, run []trace.Sample, offset time.Duration) error {
	t := run[0].T + offset
	p := sh.begin()
	p = append(p, recRun)
	p = binary.AppendUvarint(p, ref)
	p = binary.AppendUvarint(p, idx)
	p = binary.AppendUvarint(p, uint64(len(run)))
	p = binary.AppendVarint(p, int64(t))
	for _, sm := range run {
		p = binary.AppendUvarint(p, uint64(sm.T+offset-t))
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(sm.V))
		t = sm.T + offset
	}
	return sh.commit(p)
}

// AppendGap journals one gap marker at absolute gap index idx.
func (sh *Shard) AppendGap(ref, idx uint64, t time.Duration) error {
	p := sh.begin()
	p = append(p, recGap)
	p = binary.AppendUvarint(p, ref)
	p = binary.AppendUvarint(p, idx)
	p = binary.AppendVarint(p, int64(t))
	return sh.commit(p)
}

// begin starts a record in the reusable scratch buffer, leaving room for
// the 8-byte frame header, so steady-state appends allocate nothing and
// each record reaches the segment as one whole frame.
func (sh *Shard) begin() []byte {
	if cap(sh.buf) < 64 {
		sh.buf = make([]byte, 0, 256)
	}
	sh.buf = sh.buf[:8]
	return sh.buf
}

func (sh *Shard) commit(p []byte) error {
	sh.buf = p[:0] // keep a grown buffer for reuse
	payload := p[8:]
	binary.LittleEndian.PutUint32(p[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(p[4:8], crc32.Checksum(payload, storage.Castagnoli))
	if err := sh.seg.append(p); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	sh.appended += int64(len(p))
	return nil
}

// Sample is one replayed sample record, resolved to its series.
type Sample struct {
	Key   storage.SeriesKey
	Unit  string
	Index uint64
	T     time.Duration
	V     float64
}

// Gap is one replayed gap record, resolved to its series.
type Gap struct {
	Key   storage.SeriesKey
	Unit  string
	Index uint64
	T     time.Duration
}

// Replay reads every shard directory under dir and returns all decodable
// sample and gap records, sorted by (series, index) — the order they can
// be applied in regardless of which shard layout wrote them. Segments end
// silently at the first torn or corrupt record (the crash tail); wholly
// unreadable files are an error.
func Replay(dir string) ([]Sample, []Gap, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	var samples []Sample
	var gaps []Gap
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		sd := filepath.Join(dir, e.Name())
		seqs, err := segmentSeqs(sd)
		if err != nil {
			return nil, nil, err
		}
		for _, seq := range seqs {
			name := filepath.Join(sd, fmt.Sprintf("%08d.wal", seq))
			if samples, gaps, err = replaySegment(name, samples, gaps); err != nil {
				return nil, nil, err
			}
		}
	}
	sort.SliceStable(samples, func(i, j int) bool {
		if samples[i].Key != samples[j].Key {
			return storage.KeyLess(samples[i].Key, samples[j].Key)
		}
		return samples[i].Index < samples[j].Index
	})
	sort.SliceStable(gaps, func(i, j int) bool {
		if gaps[i].Key != gaps[j].Key {
			return storage.KeyLess(gaps[i].Key, gaps[j].Key)
		}
		return gaps[i].Index < gaps[j].Index
	})
	return samples, gaps, nil
}

type seriesDecl struct {
	key  storage.SeriesKey
	unit string
}

func replaySegment(name string, samples []Sample, gaps []Gap) ([]Sample, []Gap, error) {
	data, err := os.ReadFile(name)
	if err != nil {
		return samples, gaps, fmt.Errorf("wal: %w", err)
	}
	return replayBytes(name, data, samples, gaps)
}

// replayBytes decodes one segment's bytes. A segment ends at the first
// frame that is empty (the zeros of a preallocated tail), longer than
// what is left of the file, or fails its checksum.
func replayBytes(name string, data []byte, samples []Sample, gaps []Gap) ([]Sample, []Gap, error) {
	if len(data) < 8 || string(data[:4]) != magic {
		return samples, gaps, fmt.Errorf("wal: %s: bad segment header", name)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != version {
		return samples, gaps, fmt.Errorf("wal: %s: unsupported version %d", name, v)
	}
	refs := map[uint64]seriesDecl{}
	off := 8
	for off+8 <= len(data) {
		plen := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		// Compared as uint64 so a length near 2^32 can neither wrap an
		// int negative nor overflow the sum on a 32-bit platform.
		if plen == 0 || uint64(plen) > uint64(len(data)-off-8) {
			break // preallocated or torn tail
		}
		payload := data[off+8 : off+8+int(plen)]
		if crc32.Checksum(payload, storage.Castagnoli) != sum {
			break // corrupt tail
		}
		off += 8 + int(plen)
		if err := decodeRecord(payload, refs, &samples, &gaps); err != nil {
			return samples, gaps, fmt.Errorf("wal: %s: %w", name, err)
		}
	}
	return samples, gaps, nil
}

// decodeRecord decodes one checksummed payload; one too short for its
// record type is io.ErrUnexpectedEOF (storage.Reader's error).
func decodeRecord(p []byte, refs map[uint64]seriesDecl, samples *[]Sample, gaps *[]Gap) error {
	r := storage.Reader{P: p}
	typ, ref := r.Byte(), r.Uvarint()
	if r.Err != nil {
		return r.Err
	}
	switch typ {
	case recSeries:
		var d seriesDecl
		d.key.Node, d.key.Backend, d.key.Domain, d.unit = r.Str(), r.Str(), r.Str(), r.Str()
		if r.Err == nil {
			refs[ref] = d
		}
	case recSample:
		d, ok := refs[ref]
		if !ok {
			return fmt.Errorf("sample record references undeclared series %d", ref)
		}
		s := Sample{Key: d.key, Unit: d.unit, Index: r.Uvarint(), T: time.Duration(r.Varint()), V: r.Float64()}
		if r.Err == nil {
			*samples = append(*samples, s)
		}
	case recRun:
		d, ok := refs[ref]
		if !ok {
			return fmt.Errorf("run record references undeclared series %d", ref)
		}
		idx, n, t := r.Uvarint(), r.Uvarint(), r.Varint()
		// A count is believed only as far as the bytes left could hold it
		// (a step and a value are at least nine), and a record cut short
		// anywhere gives back what it had appended: all of a run or none.
		if n > uint64(len(r.P))/9 {
			r.Err = io.ErrUnexpectedEOF
		}
		whole := len(*samples)
		for ; n > 0 && r.Err == nil; n, idx = n-1, idx+1 {
			step := r.Uvarint()
			if step > uint64(math.MaxInt64-max(t, 0)) {
				r.Err = fmt.Errorf("run record of series %d steps past the end of time", ref)
				break
			}
			t += int64(step)
			*samples = append(*samples, Sample{Key: d.key, Unit: d.unit, Index: idx, T: time.Duration(t), V: r.Float64()})
		}
		if r.Err != nil {
			*samples = (*samples)[:whole]
		}
	case recGap:
		d, ok := refs[ref]
		if !ok {
			return fmt.Errorf("gap record references undeclared series %d", ref)
		}
		g := Gap{Key: d.key, Unit: d.unit, Index: r.Uvarint(), T: time.Duration(r.Varint())}
		if r.Err == nil {
			*gaps = append(*gaps, g)
		}
	default:
		return fmt.Errorf("unknown record type %d", typ)
	}
	return r.Err
}

func segmentSeqs(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".wal") {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(name, ".wal"), 10, 64)
		if err != nil {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}
