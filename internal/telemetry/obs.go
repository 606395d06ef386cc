package telemetry

import (
	"fmt"
	"time"

	"envmon/internal/obs"
	"envmon/internal/telemetry/wal"
)

// Self-observability for the storage engine. The design constraint is the
// paper's own: the monitoring system must not perturb what it monitors —
// here, the store must not slow the ingest path it exists to measure.
// Memory ingest runs ~200 ns/sample, so even one extra atomic add is a
// measurable percentage. The instrumentation therefore adds (almost)
// nothing inline:
//
//   - Counts the store already maintains (samples, gaps, series,
//     compactions, read errors, WAL sizes, watermarks) are exported as
//     func metrics — closures evaluated at scrape time over the existing
//     atomics and per-shard state. The ingest path gains zero
//     instructions.
//   - Derived quantities (ring evictions, persisted seam positions,
//     compression ratio) are computed at scrape time by walking the
//     shards under read locks, never counted inline.
//   - WAL-append spans are sampled: 1 in 1024 journaled appends is
//     timed, enough to populate the latency histogram without paying
//     two clock reads per sample.
//   - Queries and compactions are timed unconditionally — they are
//     orders of magnitude rarer than ingests — and feed the slow-op log.
//
// Instrument must be called at wiring time, before the store is shared
// across goroutines: the obs hook is a plain field the hot path reads
// without synchronization.

// storeObs holds the store's tracing hooks; nil means uninstrumented.
type storeObs struct {
	walStage     obs.Stage
	ingestStage  obs.Stage
	queryStage   obs.Stage
	compactStage obs.Stage
	slow         *obs.SlowLog
}

// Instrument registers the store's metrics in reg and wires pipeline
// stages from tr and the slow-op log. Any argument may be nil; the
// corresponding accounting is skipped. Call once, before the store is
// shared — typically right after New or Open.
func (st *Store) Instrument(reg *obs.Registry, tr *obs.Tracer, slow *obs.SlowLog) {
	st.obs = &storeObs{
		walStage:     tr.Stage("wal_append"),
		ingestStage:  tr.Stage("ingest"),
		queryStage:   tr.Stage("query"),
		compactStage: tr.Stage("compaction"),
		slow:         slow,
	}
	if reg == nil {
		return
	}

	reg.CounterFunc("envmon_ingest_samples_total",
		"Samples ever ingested (including ones since evicted from head rings).",
		func() float64 { return float64(st.samples.Load()) })
	reg.CounterFunc("envmon_ingest_gaps_total",
		"Failed-poll gap markers ever ingested.",
		func() float64 { return float64(st.gaps.Load()) })
	reg.CounterFunc("envmon_ingest_errors_total",
		"Rejected ingests (closed store, out-of-order sample, journal failure).",
		func() float64 { return float64(st.ingestErrs.Load()) })
	reg.GaugeFunc("envmon_series",
		"Distinct series currently stored.",
		func() float64 { return float64(st.nseries.Load()) })
	reg.CounterFunc("envmon_ring_evicted_samples_total",
		"Raw samples pushed out of head rings (computed at scrape from per-series counts).",
		func() float64 {
			return float64(st.sumSeries(func(s *series) uint64 { return s.raw.total - uint64(s.raw.len()) }))
		})
	reg.CounterFunc("envmon_persisted_samples_total",
		"Samples sealed into blocks — the count-seam watermark summed across series.",
		func() float64 { return float64(st.persistedSamples()) })
	reg.CounterFunc("envmon_persisted_gaps_total",
		"Gap markers sealed into blocks.",
		func() float64 { return float64(st.sumSeries(func(s *series) uint64 { return s.gaps.sealed })) })

	if st.wal == nil {
		return
	}
	// Persistence tiers: all scrape-time reads of state the engine already
	// tracks. The WAL counters are read under the same shard locks the
	// appenders hold (sumWAL), so the values are exact.
	walFunc := func(fn func(*wal.Shard) int64) func() float64 {
		return func() float64 { return float64(st.sumWAL(fn)) }
	}
	reg.GaugeFunc("envmon_wal_live_bytes",
		"Live journal bytes across shard segments (logical: preallocated space is not counted).",
		walFunc(func(w *wal.Shard) int64 { return w.Size() }))
	reg.CounterFunc("envmon_wal_appended_bytes_total",
		"Bytes ever journaled, across segment rotations — the WAL write volume.",
		walFunc(func(w *wal.Shard) int64 { return w.Appended() }))
	reg.CounterFunc("envmon_wal_rotations_total",
		"WAL segment rotations (one per compaction per shard).",
		walFunc(func(w *wal.Shard) int64 { return int64(w.Rotations()) }))
	reg.CounterFunc("envmon_wal_mapped_segments_total",
		"WAL segments opened with the mapped appender (an append is a copy into a preallocated, mapped window).",
		walFunc(func(w *wal.Shard) int64 { m, _ := w.Segments(); return int64(m) }))
	reg.CounterFunc("envmon_wal_fallback_segments_total",
		"WAL segments that fell back to one write(2) per record: not Linux, or the filesystem refused fallocate or mmap.",
		walFunc(func(w *wal.Shard) int64 { _, wr := w.Segments(); return int64(wr) }))
	reg.CounterFunc("envmon_compactions_total",
		"Blocks written since open.",
		func() float64 { return float64(st.compactions.Load()) })
	reg.CounterFunc("envmon_block_read_errors_total",
		"Block read failures during queries (frames degrade to head data).",
		func() float64 { return float64(st.readErrs.Load()) })
	reg.GaugeFunc("envmon_block_files",
		"Sealed block files on disk.",
		func() float64 { return float64(st.blocks.NumBlocks()) })
	reg.GaugeFunc("envmon_block_bytes",
		"Total block file bytes.",
		func() float64 { return float64(st.blocks.Bytes()) })
	reg.GaugeFunc("envmon_block_compression_ratio",
		"Persisted samples at a 16-byte baseline over block bytes (0 until the first block).",
		func() float64 {
			bytes := st.blocks.Bytes()
			if bytes <= 0 {
				return 0
			}
			return float64(16*st.persistedSamples()) / float64(bytes)
		})
}

// persistedSamples sums the per-series persisted watermarks.
func (st *Store) persistedSamples() uint64 {
	return st.sumSeries(func(s *series) uint64 { return s.raw.sealed })
}

// sumSeries folds fn over every series, shard by shard under read locks.
func (st *Store) sumSeries(fn func(*series) uint64) uint64 {
	var n uint64
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		for _, s := range sh.list {
			n += fn(s)
		}
		sh.mu.RUnlock()
	}
	return n
}

// observeQuery records one completed query in the query stage and, past
// the threshold, the slow-op log. The detail string is only built for
// slow queries.
func (st *Store) observeQuery(q Query, frames int, wall time.Duration) {
	o := st.obs
	if o == nil {
		return
	}
	o.queryStage.Observe(wall, 0)
	o.slow.Observe("query", wall, 0, func() string {
		return fmt.Sprintf("node=%q backend=%q domain=%q res=%s agg=%s frames=%d",
			q.Node, q.Backend, q.Domain, q.Resolution, q.Aggregate, frames)
	})
}
