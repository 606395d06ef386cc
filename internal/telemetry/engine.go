package telemetry

import (
	"fmt"
	"path/filepath"
	"time"

	"envmon/internal/telemetry/block"
	"envmon/internal/telemetry/storage"
	"envmon/internal/telemetry/wal"
)

// This file is the persistence engine beneath the head: opening a data
// directory (block scan + WAL replay), the WAL-ahead journaling the ingest
// path calls, and compaction — sealing each shard's unpersisted tail into
// a block and dropping the journal segment it came from.
//
// Layout under the data directory:
//
//	<dir>/wal/<shard>/<seq>.wal   write-ahead log (internal/telemetry/wal)
//	<dir>/blocks/b-<seq>.blk      compacted blocks (internal/telemetry/block)
//
// Lock order is shard.mu before the block store's internal lock, on both
// the write path (ingest → compaction → block append) and the read path
// (query → block chunk reads).

// Open opens a persistent store rooted at dir, creating the directory
// layout on first use and recovering on every later one: block indexes
// seed each series' persisted watermarks and rollup tails, the WAL replays
// whatever the last run had acknowledged but not yet compacted, and the
// replayed tail is immediately compacted into a block so the store starts
// with an empty journal. Recovery is idempotent — every journal record
// carries its series' absolute index, so records an existing block already
// covers are skipped — and tolerates a torn record at each segment's tail
// (the write the dying process never finished, never acknowledged).
func Open(dir string, opts Options) (*Store, error) {
	st := New(opts)
	st.dataDir = dir

	blocks, err := block.Open(filepath.Join(dir, "blocks"))
	if err != nil {
		return nil, err
	}
	st.blocks = blocks

	// Seed the head from the block indexes: per series, the persisted
	// watermarks, newest instants, and each rollup level's open tail
	// bucket, so incremental accumulation resumes exactly where the
	// sealed data ends.
	blocks.Each(func(key storage.SeriesKey, a block.Agg) {
		s := st.recoverSeries(key, a.Unit)
		s.raw.restore(a.Points)
		s.gaps.restore(a.Gaps)
		s.minT, s.lastT, s.lastGapT = a.MinT, a.LastT, a.LastGapT
		for l := range s.roll {
			s.roll[l].restore(a.Buckets[l])
			if a.Tails[l] != nil {
				s.roll[l].push(*a.Tails[l])
			}
		}
		st.samples.Add(a.Points)
		st.gaps.Add(a.Gaps)
	})

	// Replay the journal on top: every series' samples, then every series'
	// gaps, series in key order and each stream in index order, one series
	// lookup per stream. A record is applied only where it extends its
	// stream (replayable).
	walDir := filepath.Join(dir, "wal")
	samples, gaps, err := wal.Replay(walDir)
	if err != nil {
		st.Close()
		return nil, err
	}
	for _, r := range samples {
		s := st.recoverSeries(r.Key, r.Unit)
		for _, e := range r.Entries {
			if st.replayable(e.Index, s.raw.total) {
				s.append(e.T, e.V)
				st.recovered.Samples++
			}
		}
	}
	for _, r := range gaps {
		s := st.recoverSeries(r.Key, r.Unit)
		for _, e := range r.Entries {
			if st.replayable(e.Index, s.gaps.total) {
				s.appendGap(e.T)
				st.recovered.Gaps++
			}
		}
	}
	st.samples.Add(st.recovered.Samples)
	st.gaps.Add(st.recovered.Gaps)
	st.recovered.Series = int(st.nseries.Load())

	w, err := wal.Create(walDir, st.opts.Shards)
	if err != nil {
		st.Close()
		return nil, err
	}
	st.wal = w
	for i := range st.shards {
		st.shards[i].wal = w.Shard(i)
		st.shards[i].walEpoch = 1
	}

	// Seal the replayed tail into a block and drop the recovered segments,
	// so a second crash re-reads blocks, not a growing journal. Forced, so
	// even shards with nothing new rotate away their old segments.
	for i := range st.shards {
		sh := &st.shards[i]
		if err := st.compactShardLocked(sh, true); err != nil {
			st.Close()
			return nil, err
		}
	}
	return st, nil
}

// recoverSeries returns the series for key, creating it unjournaled. Only
// called from Open, before the store is shared, so no locks are taken.
func (st *Store) recoverSeries(key SeriesKey, unit string) *series {
	sh := &st.shards[key.Hash()%uint64(len(st.shards))]
	s := sh.series[key]
	if s == nil {
		s = newSeries(key, unit, st.opts)
		sh.series[key] = s
		st.nseries.Add(1)
	}
	return s
}

// replayable reports whether a journal record at index extends a stream
// that holds total entries. An index below total is a duplicate — already in
// a block, or left in an older segment by an interrupted compaction — and is
// skipped; an index beyond it means the journal lost acknowledged records
// (counted, not invented).
func (st *Store) replayable(index, total uint64) bool {
	if index > total {
		st.recovered.Lost++
	}
	return index == total
}

// journalReadyLocked prepares the shard's journal for one record of s, so
// the record is durable before the head absorbs its entry: compact first if
// absorbing the entry would evict unsealed data (pressed) or the segment is
// over budget, then declare the series in the current segment. The caller
// holds sh.mu, has validated time order, and appends the record at the
// entry's absolute index.
func (st *Store) journalReadyLocked(sh *shard, s *series, pressed bool) error {
	if pressed || sh.wal.Size() >= st.opts.WALSegmentBytes {
		if err := st.compactShardLocked(sh, false); err != nil {
			return err
		}
	}
	if s.walEpoch != sh.walEpoch {
		ref, err := sh.wal.AppendSeries(s.key, s.unit)
		if err != nil {
			return err
		}
		s.walRef, s.walEpoch = ref, sh.walEpoch
	}
	return nil
}

// compactShardLocked seals every series' unpersisted tail in the shard
// into one block, advances the watermarks, and rotates the shard's WAL
// (the journaled records are all in the block now). force rotates even
// when there is nothing to seal — Open uses it to drop recovered
// segments. Caller holds sh.mu; lock order shard → blocks.
func (st *Store) compactShardLocked(sh *shard, force bool) error {
	var snaps []storage.SeriesSnapshot
	for _, s := range sh.series {
		if s.raw.total > s.raw.sealed || s.gaps.total > s.gaps.sealed {
			snaps = append(snaps, s.snapshotLocked())
		}
	}
	if len(snaps) == 0 && !force {
		return nil
	}
	o := st.obs
	var start time.Time
	if o != nil {
		start = time.Now()
	}
	if len(snaps) > 0 {
		if err := st.blocks.Append(snaps); err != nil {
			return err
		}
		for _, s := range sh.series {
			s.markPersistedLocked()
		}
		st.compactions.Add(1)
	}
	// The epoch moves even when the rotation fails (the disk too full for
	// the next segment): the old segment is gone either way and every ref
	// into it, so each series' next record is a declaration, and that is
	// where the journal opens the segment it could not open here.
	err := sh.wal.Rotate()
	sh.walEpoch++
	if err != nil {
		return err
	}
	if o != nil {
		wall := time.Since(start)
		o.compactStage.Observe(wall, 0)
		o.slow.Observe("compaction", wall, 0, func() string {
			return fmt.Sprintf("series=%d forced=%v", len(snaps), force)
		})
	}
	return nil
}

// snapshotLocked seals the series' unpersisted tail for a block writer:
// each stream's pending entries — for a rollup level the closed buckets
// only, the open tail travels as state — plus the newest instants.
func (s *series) snapshotLocked() storage.SeriesSnapshot {
	sn := storage.SeriesSnapshot{Key: s.key, Unit: s.unit, LastT: s.lastT, LastGapT: s.lastGapT}
	sn.StartPoint, sn.Points = s.raw.pending(s.raw.total)
	sn.StartGap, sn.Gaps = s.gaps.pending(s.gaps.total)
	for l := range s.roll {
		rb := &s.roll[l]
		if rb.len() == 0 {
			continue
		}
		lv := &sn.Levels[l]
		lv.StartBucket, lv.Closed = rb.pending(rb.total - 1)
		tb := *rb.tail()
		lv.Tail = &tb
	}
	return sn
}

// markPersistedLocked advances the watermarks after a successful block
// append: everything currently in memory is sealed, bar each rollup level's
// open tail.
func (s *series) markPersistedLocked() {
	s.raw.sealed = s.raw.total
	s.gaps.sealed = s.gaps.total
	for l := range s.roll {
		if rb := &s.roll[l]; rb.total > 0 {
			rb.sealed = rb.total - 1
		}
	}
}

// Flush compacts every shard's unpersisted tail into blocks. After a
// successful Flush the in-memory state is fully reconstructible from the
// block store alone — the guarantee a daemon wants before exiting. A
// memory-only store flushes trivially; a persistent store that is already
// closed has no journal left to seal against and reports ErrClosed.
func (st *Store) Flush() error {
	if st.wal == nil {
		return nil
	}
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		err := ErrClosed // only Close detaches a persistent shard's journal
		if sh.wal != nil {
			err = st.compactShardLocked(sh, false)
		}
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("telemetry: flush: %w", err)
		}
	}
	return nil
}

// RecoveryStats describes what Open reconstructed from the data directory.
type RecoveryStats struct {
	// Series is the number of series restored (blocks and journal).
	Series int
	// Samples / Gaps are the records replayed from the WAL — acknowledged
	// ingests the last run had not yet compacted.
	Samples uint64
	Gaps    uint64
	// Lost counts journal records that could not be applied because their
	// index was past the series' end — acknowledged data the journal no
	// longer accounts for. Zero in every crash the engine models.
	Lost uint64
}

// StorageStats is a point-in-time view of the persistence tiers, for
// health endpoints. The zero value (Persistent false) is a memory-only
// store.
type StorageStats struct {
	Persistent  bool
	DataDir     string
	Blocks      int    // sealed block files
	BlockBytes  int64  // total block file bytes
	WALBytes    int64  // live journal bytes across shards (logical, not preallocated)
	WALMapped   bool   // every shard journals through the mapped window, none by write(2)
	Compactions uint64 // blocks written since open
	ReadErrors  uint64 // block read failures during queries
	Recovery    RecoveryStats
}

// StorageStats reports the persistence tiers' current state.
func (st *Store) StorageStats() StorageStats {
	if st.blocks == nil {
		return StorageStats{}
	}
	stats := StorageStats{
		Persistent:  true,
		DataDir:     st.dataDir,
		Blocks:      st.blocks.NumBlocks(),
		BlockBytes:  st.blocks.Bytes(),
		Compactions: st.compactions.Load(),
		ReadErrors:  st.readErrs.Load(),
		Recovery:    st.recovered,
	}
	stats.WALBytes = st.sumWAL(func(w *wal.Shard) int64 { return w.Size() })
	stats.WALMapped = st.sumWAL(func(w *wal.Shard) int64 {
		if w.Mapped() {
			return 1
		}
		return 0
	}) == int64(len(st.shards))
	return stats
}

// sumWAL folds fn over every shard's journal appender under the shard's
// read lock — the lock appends hold, so the values are exact. A closed
// store has no appenders left and sums to 0.
func (st *Store) sumWAL(fn func(*wal.Shard) int64) int64 {
	var n int64
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		if sh.wal != nil {
			n += fn(sh.wal)
		}
		sh.mu.RUnlock()
	}
	return n
}

// MaxTime reports the newest sample or gap instant across every series (0
// when empty). A restarting daemon offsets its clock past this so new
// ingests never run backwards against recovered series.
func (st *Store) MaxTime() time.Duration {
	var max time.Duration
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		for _, s := range sh.series {
			if s.raw.total > 0 && s.lastT > max {
				max = s.lastT
			}
			if s.gaps.total > 0 && s.lastGapT > max {
				max = s.lastGapT
			}
		}
		sh.mu.RUnlock()
	}
	return max
}
