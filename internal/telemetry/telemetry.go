// Package telemetry is the aggregation layer of the stack: a sharded
// time-series store that the collection pipeline streams into and that
// operator-facing tools query.
//
// The paper's end state is not samples on disk but a service: BG/Q ships
// its environmental data into a central database that tools query, and
// MonEQ exists so users consume power data without touching vendor
// mechanisms. This package is that service's storage engine. Producers —
// MonEQ sessions via MonEQSink/SetCursor, the BG/Q environmental database
// via EnvDBBridge — ingest into per-(node, backend, domain) series; the
// query layer (Query, TopK) serves windows of raw samples or multi-
// resolution rollups to the HTTP daemon in cmd/envmond.
//
// The store is a layered engine. New opens the head alone — the sharded
// in-memory tier of preallocated rings — which is the whole store for
// short-lived sessions and tests. Open layers durability beneath the same
// head: every acknowledged ingest is journaled to a per-shard write-ahead
// log (internal/telemetry/wal) before the rings absorb it, and sealed head
// data is compacted into immutable compressed block files
// (internal/telemetry/block) before the rings would evict it. Queries
// stitch blocks and head back together along per-series sample counts (the
// "count seam" — see internal/telemetry/storage), so a persistent store
// serves its full history while a memory-only store behaves exactly as the
// rings alone do.
//
// Design points:
//
//   - Series live in fixed-size ring buffers, so the store's memory is
//     bounded per series no matter how long the daemon runs (what feeds it
//     is bounded by the adapters: a SetCursor leaves a monitor's set at most
//     one flush interval deep, an EnvDBBridge leaves the database at most
//     two polls deep); old raw samples are evicted while
//     the rollup ladder (1 s → 10 s → 60 s buckets of min/max/mean/last)
//     retains the coarse history — and, when a data directory is
//     configured, evicted data is already sealed in blocks.
//   - Rollups are computed incrementally on ingest — one bucket update per
//     resolution level — never by rescanning raw data, so ingest cost does
//     not grow with series length and monitoring stays cheap enough not to
//     perturb the monitored workload.
//   - The series map is sharded by key hash with one lock per shard
//     (lock striping), so writers on different clock domains and concurrent
//     readers rarely contend. The WAL is segmented per shard, so journaling
//     rides the shard lock the ingest path already holds. Query results are
//     a pure function of the per-series ingest stream: the same stream
//     produces byte-identical results at any shard count, with or without
//     a restart in between.
//   - Steady-state ingest is allocation-free: the key is a comparable
//     struct (no string building), the hash is computed in place, all
//     buffers are preallocated rings, and the WAL appender reuses one
//     scratch buffer per shard.
//   - Traffic that arrives grouped is taken grouped. A cursor flush holds a
//     run of consecutive samples per series, and hands each run over in one
//     call: one hash, one shard lock, one series lookup, and in a persistent
//     store one journal record per run instead of one per sample. Ingest
//     keeps its single-sample body for interleaved traffic; both end in the
//     same series.append, which tests a sample against its open buckets by
//     subtraction and divides only when a bucket opens, and they seal at the
//     same sample index — the store cannot tell which of the two fed it.
package telemetry

import (
	"errors"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"envmon/internal/obs"
	"envmon/internal/telemetry/block"
	"envmon/internal/telemetry/storage"
	"envmon/internal/telemetry/wal"
	"envmon/internal/trace"
)

// SeriesKey identifies one stored series: a measurement domain of one
// backend mechanism on one node — e.g. {Node: "c401-003", Backend: "MSR",
// Domain: "Total Power"}. An alias of the storage layer's key type, so
// values flow between the head, WAL, and block tiers without conversion.
type SeriesKey = storage.SeriesKey

// splitSeriesName splits a MonEQ trace series name ("method/capability",
// e.g. "MICRAS daemon/Total Power") into backend and domain at the first
// slash. A name without a slash becomes the domain of an empty backend.
// Slashes after the first stay in the domain ("MSR/DDR/GDDR Temperature"
// → backend "MSR", domain "DDR/GDDR Temperature").
func splitSeriesName(name string) (backend, domain string) {
	if i := strings.IndexByte(name, '/'); i >= 0 {
		return name[:i], name[i+1:]
	}
	return "", name
}

// Ingest and lifecycle errors. Sentinels, so the hot path never formats.
var (
	// ErrClosed is returned by Ingest after Close, and by Flush on a
	// persistent store after Close.
	ErrClosed = errors.New("telemetry: store is closed")
	// ErrOutOfOrder is returned when a sample's time precedes the series'
	// newest sample (or is negative). Equal timestamps are accepted.
	ErrOutOfOrder = errors.New("telemetry: out-of-order sample")
	// ErrSeriesLimit is returned when creating one more series would
	// exceed Options.MaxSeries.
	ErrSeriesLimit = errors.New("telemetry: series limit reached")
)

// Options parameterizes New. The zero value selects the defaults.
type Options struct {
	// Shards is the number of lock-striped shards the series map is split
	// across. Non-positive selects 8.
	Shards int
	// RawCapacity is the fixed ring size for raw samples per series;
	// older samples are evicted. Non-positive selects 4096.
	RawCapacity int
	// RollupCapacity is the fixed ring size, in buckets, of each rollup
	// level per series. Non-positive selects 1024 (at the coarsest 60 s
	// level that is ~17 hours of history).
	RollupCapacity int
	// MaxSeries caps the number of distinct series the store will create;
	// 0 means unlimited. The cap models the central server's finite
	// processing capacity (the envdb capacity limit, one layer up). Under
	// concurrent first-touch of new series the cap is approximate.
	MaxSeries int
	// GapCapacity is the fixed ring size for failed-poll markers per
	// series. Non-positive selects 1024.
	GapCapacity int
	// WALSegmentBytes caps a WAL shard segment's size in a persistent
	// store (Open): crossing it triggers a compaction, which seals the
	// journaled data into a block and drops the segment. Non-positive
	// selects 4 MiB. Ignored by memory-only stores.
	WALSegmentBytes int64
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 8
	}
	if o.RawCapacity <= 0 {
		o.RawCapacity = 4096
	}
	if o.RollupCapacity <= 0 {
		o.RollupCapacity = 1024
	}
	if o.GapCapacity <= 0 {
		o.GapCapacity = 1024
	}
	if o.WALSegmentBytes <= 0 {
		o.WALSegmentBytes = 4 << 20
	}
	return o
}

// Store is the sharded time-series store. Safe for concurrent use by any
// number of writers and readers.
//
// A store from New is the head alone: in-memory rings, no durability. A
// store from Open layers a write-ahead log and a block store beneath the
// same head; see the package comment for the tiering.
type Store struct {
	opts    Options
	shards  []shard
	closed  atomic.Bool
	nseries atomic.Int64
	samples atomic.Uint64
	gaps    atomic.Uint64

	// Self-observability hooks (see obs.go); obs is nil in an
	// uninstrumented store and is set at wiring time, never after the
	// store is shared. ingestErrs counts rejected ingests — the only
	// inline instrumentation on the ingest path, and only on error
	// returns, which are off the steady-state path by definition.
	obs        *storeObs
	ingestErrs atomic.Uint64

	// Persistence tiers; all nil/zero in a memory-only store.
	dataDir     string
	wal         *wal.WAL
	blocks      *block.Store
	compactions atomic.Uint64
	readErrs    atomic.Uint64
	recovered   RecoveryStats
}

type shard struct {
	mu     sync.RWMutex
	series map[SeriesKey]*series

	// wal is the shard's journal appender (nil in a memory-only store);
	// walEpoch invalidates series' segment-scoped WAL refs on rotation.
	// Both guarded by mu.
	wal      *wal.Shard
	walEpoch uint64
}

// New returns an empty memory-only store.
func New(opts Options) *Store {
	opts = opts.withDefaults()
	st := &Store{opts: opts, shards: make([]shard, opts.Shards)}
	for i := range st.shards {
		st.shards[i].series = make(map[SeriesKey]*series)
	}
	return st
}

// lockSeries is the prologue Ingest and IngestGap share: it locks the key's
// shard and returns the series, created on first touch (unit is recorded
// then; later values are ignored). On error the shard is unlocked again and
// the rejection counted. closed is checked under the shard lock: Close
// detaches the journal under every shard lock, so a call that reads closed
// as false here still has its journal, and no acknowledged ingest on a
// persistent store goes unjournaled.
func (st *Store) lockSeries(key SeriesKey, unit string, t time.Duration) (*shard, *series, error) {
	sh := &st.shards[key.Hash()%uint64(len(st.shards))]
	sh.mu.Lock()
	if st.closed.Load() {
		return nil, nil, st.reject(sh, ErrClosed)
	}
	if t < 0 {
		return nil, nil, st.reject(sh, ErrOutOfOrder)
	}
	s := sh.series[key]
	if s == nil {
		if max := st.opts.MaxSeries; max > 0 && st.nseries.Load() >= int64(max) {
			return nil, nil, st.reject(sh, ErrSeriesLimit)
		}
		s = newSeries(key, unit, st.opts)
		sh.series[key] = s
		st.nseries.Add(1)
	}
	return sh, s, nil
}

// reject is the one failure exit of the ingest path: release the shard,
// count the rejection, hand err back. The head is not mutated.
func (st *Store) reject(sh *shard, err error) error {
	sh.mu.Unlock()
	st.ingestErrs.Add(1)
	return err
}

// Ingest appends one sample to the keyed series, creating it on first
// touch. Per series, sample times must be non-decreasing; across series
// there is no ordering requirement, which is what lets independent clock
// domains ingest concurrently. Steady-state ingest performs zero
// allocations.
//
// In a persistent store the sample is journaled to the shard's WAL before
// the rings absorb it, so a successful return means the sample survives a
// crash; when absorbing it would evict unpersisted data, the shard is
// compacted into a block first. A journaling or compaction failure rejects
// the ingest without mutating the head.
func (st *Store) Ingest(key SeriesKey, unit string, t time.Duration, v float64) error {
	sh, s, err := st.lockSeries(key, unit, t)
	if err != nil {
		return err
	}
	if s.raw.total > 0 && t < s.lastT {
		return st.reject(sh, ErrOutOfOrder)
	}
	if sh.wal != nil {
		if err := st.journalReadyLocked(sh, s, s.samplePressed(t)); err != nil {
			return st.reject(sh, err)
		}
		// Journal-append spans are sampled 1 in 1024 so the latency
		// histogram fills without two clock reads per acknowledged sample.
		// The clock starts after journalReadyLocked: a seal it ran is the
		// compaction stage's, and a raw ring whose size is a multiple of
		// 1024 presses on exactly the sampled indexes.
		var span obs.Span
		if o := st.obs; o != nil && s.raw.total&1023 == 0 {
			span = o.walStage.Begin()
		}
		if err := sh.wal.AppendSample(s.walRef, s.raw.total, t, v); err != nil {
			return st.reject(sh, err)
		}
		span.End(0)
	}
	s.append(t, v)
	sh.mu.Unlock()
	st.samples.Add(1)
	return nil
}

// ingestRun is Ingest for consecutive samples of one series, offset added to
// each time: what a cursor flush holds per series. The shard lock, the closed
// check and the series lookup are paid once for the run, and the journal takes
// one record per stretch (series.stretch) instead of one per sample — written
// whole before any of its samples reaches the rings, after the same seal, at
// the same sample index, that Ingest would have run. A rejected sample (out of
// order, a failed seal or append) acknowledges the samples before it, which are
// in the store as if Ingest had taken them one by one, and nothing from it on.
func (st *Store) ingestRun(key SeriesKey, unit string, run []trace.Sample, offset time.Duration) (acknowledged int, err error) {
	if len(run) == 0 {
		return 0, nil
	}
	sh, s, err := st.lockSeries(key, unit, run[0].T+offset)
	if err != nil {
		return 0, err
	}
	journaled := sh.wal != nil
	for acknowledged < len(run) {
		rest := run[acknowledged:]
		t := rest[0].T + offset
		if s.raw.total > 0 && t < s.lastT {
			err = ErrOutOfOrder
			break
		}
		if journaled {
			if err = st.journalReadyLocked(sh, s, s.samplePressed(t)); err != nil {
				break
			}
		}
		rest = rest[:s.stretch(rest, offset, journaled)]
		if journaled {
			// One span per record holding a sample whose index is a multiple
			// of 1024: the rate per sample Ingest samples at.
			var span obs.Span
			if o := st.obs; o != nil && -s.raw.total&1023 < uint64(len(rest)) {
				span = o.walStage.Begin()
			}
			if err = sh.wal.AppendRun(s.walRef, s.raw.total, rest, offset); err != nil {
				break
			}
			span.End(0)
		}
		for _, sm := range rest {
			s.append(sm.T+offset, sm.V)
		}
		acknowledged += len(rest)
	}
	st.samples.Add(uint64(acknowledged))
	if err != nil {
		return acknowledged, st.reject(sh, err)
	}
	sh.mu.Unlock()
	return acknowledged, nil
}

// IngestGap records an explicit "no data" marker at t for the keyed
// series: the collection mechanism fired but produced no value (device
// lost, read failed, breaker open). The series is created on first touch —
// a device that dies before its first successful read is still visible to
// queries, as a series of gaps — and gap times must be non-decreasing per
// series, independently of sample times. Journaled like a sample.
func (st *Store) IngestGap(key SeriesKey, unit string, t time.Duration) error {
	sh, s, err := st.lockSeries(key, unit, t)
	if err != nil {
		return err
	}
	if s.gaps.total > 0 && t < s.lastGapT {
		return st.reject(sh, ErrOutOfOrder)
	}
	if sh.wal != nil {
		err := st.journalReadyLocked(sh, s, s.gaps.pressed())
		if err == nil {
			err = sh.wal.AppendGap(s.walRef, s.gaps.total, t)
		}
		if err != nil {
			return st.reject(sh, err)
		}
	}
	s.appendGap(t)
	sh.mu.Unlock()
	st.gaps.Add(1)
	return nil
}

// Close marks the store closed: subsequent Ingest calls fail with
// ErrClosed. Queries keep answering from what memory holds. A persistent
// store releases every descriptor: once in-flight queries have drained, its
// WAL is synced and closed and its block files are closed, so a block read
// after Close is a read error counted in StorageStats, never a silently
// shorter answer. Call Flush first for the stronger guarantee that
// everything in memory is sealed into blocks.
func (st *Store) Close() {
	if st.closed.Swap(true) || st.blocks == nil {
		return
	}
	// Take every shard lock so no journal append or block read is mid-flight.
	for i := range st.shards {
		st.shards[i].mu.Lock()
	}
	if st.wal != nil {
		_ = st.wal.Sync()
		_ = st.wal.Close()
	}
	_ = st.blocks.Close()
	for i := range st.shards {
		st.shards[i].wal = nil
		st.shards[i].mu.Unlock()
	}
}

// Closed reports whether Close has been called. The serving layer uses it
// to turn queries racing a shutdown into an explicit 503 instead of
// serving from a store whose persistence tiers are going away.
func (st *Store) Closed() bool { return st.closed.Load() }

// NumSeries reports the number of distinct series.
func (st *Store) NumSeries() int { return int(st.nseries.Load()) }

// Samples reports the total number of samples ever ingested (including
// ones since evicted from raw rings).
func (st *Store) Samples() uint64 { return st.samples.Load() }

// Gaps reports the total number of gap markers ever ingested.
func (st *Store) Gaps() uint64 { return st.gaps.Load() }

// SeriesInfo summarizes one stored series for listings.
type SeriesInfo struct {
	Key     SeriesKey
	Unit    string
	Samples uint64 // total ever ingested into this series
	Gaps    uint64 // total failed-poll markers ever ingested
	// Persisted is how many leading samples are sealed in blocks (0 in a
	// memory-only store).
	Persisted uint64
	// Oldest is the oldest raw sample still retrievable: the oldest sample
	// in the ring for a memory-only store, the series' first sample ever
	// for a persistent one (blocks retain everything).
	Oldest time.Duration
	Newest time.Duration // newest sample
}

// Series lists every stored series, sorted by key, so output is
// deterministic at any shard count.
func (st *Store) Series() []SeriesInfo {
	var out []SeriesInfo
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		for _, s := range sh.series {
			info := SeriesInfo{Key: s.key, Unit: s.unit, Samples: s.raw.total, Gaps: s.gaps.total,
				Persisted: s.raw.sealed, Newest: s.lastT}
			if st.blocks != nil && s.raw.total > 0 {
				info.Oldest = s.minT
			} else if s.raw.len() > 0 {
				info.Oldest = s.raw.at(0).T
			}
			out = append(out, info)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return lessKey(out[i].Key, out[j].Key) })
	return out
}

// lessKey orders keys deterministically; an alias of the storage layer's
// ordering so listings, frames, and block indexes all agree.
func lessKey(a, b SeriesKey) bool { return storage.KeyLess(a, b) }
