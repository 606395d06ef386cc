package telemetry

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"envmon/internal/core"
	"envmon/internal/envdb"
)

// envDBBackend is the SeriesKey.Backend under which environmental-database
// records are stored: the BG/Q path where data reaches tools through the
// central database rather than through a per-job MonEQ session.
const envDBBackend = "envdb"

// Ingester is the subset of Store the bridge writes through. An interface
// so tests can interpose transient ingest failures.
type Ingester interface {
	Ingest(key SeriesKey, unit string, t time.Duration, v float64) error
}

// EnvDBBridge periodically drains new environmental-database records into
// a store — the second producer feeding the aggregation layer. Each record
// becomes a sample of the series {Node: location, Backend: "envdb",
// Domain: sensor}.
//
// The bridge scans the half-open window [cursor, now) each time its timer
// fires, so records stamped exactly at the firing instant are picked up on
// the next round regardless of the relative order of the database poller's
// and the bridge's timers. Per (location, sensor), database insertion
// order is time order (pollers only move forward), which satisfies the
// store's per-series ordering requirement.
//
// A failing store never loses records: when an ingest fails, the record
// and everything scanned after it are parked in a pending queue — in
// database order — and replayed at the head of the next drain, so a
// transient outage delays data instead of dropping it. Only records the
// store rejects as out-of-order are dropped (and counted): replaying those
// can never succeed.
//
// The bridge consumes the database: records it has handed over are pruned
// (see drain), so a database that must also keep history for another reader
// — a Backfill collector's lookback window — is not one to bridge from.
type EnvDBBridge struct {
	// Offset is added to every record's time on ingest — the same restart
	// continuity knob as SetCursor.Offset. Set it right after
	// StartEnvDBBridge, before the clock first fires the drain timer.
	Offset time.Duration

	store   Ingester
	db      *envdb.DB
	timer   core.Timer
	cursor  time.Duration
	pending []envdb.Record
	polls   int
	err     error
	// The drain runs on the bridge's clock domain while a /metrics scrape
	// reads the counters from an HTTP goroutine, so they are atomics;
	// parked mirrors len(pending) as of the end of the last drain.
	moved, dropped, parked atomic.Int64
}

// StartEnvDBBridge schedules a bridge from db into store on the clock,
// draining every interval. The first drain runs one interval from now.
func StartEnvDBBridge(clock core.Clock, db *envdb.DB, store Ingester, interval time.Duration) (*EnvDBBridge, error) {
	if db == nil || store == nil {
		return nil, fmt.Errorf("telemetry: envdb bridge needs a database and a store")
	}
	if interval <= 0 {
		return nil, fmt.Errorf("telemetry: envdb bridge interval must be positive, got %v", interval)
	}
	b := &EnvDBBridge{store: store, db: db}
	b.timer = clock.Every(interval, b.drain)
	return b, nil
}

func (b *EnvDBBridge) drain(now time.Duration) {
	b.polls++
	// Replay the backlog first, in database order. On the first store
	// failure, keep the failing record and everything after it — attempting
	// later records while an earlier one is parked could ingest a
	// same-series successor first and turn a transient outage into
	// permanent out-of-order drops.
	backlog := b.pending
	b.pending = b.pending[:0]
	stalled := false
	for i := range backlog {
		if !b.tryIngest(backlog[i]) {
			b.pending = append(b.pending, backlog[i:]...)
			stalled = true
			break
		}
	}
	// Scan the new window. The cursor always advances to now, but every
	// scanned record either reaches the store or joins the queue, so
	// nothing the scan visited is ever lost.
	b.db.Scan(b.cursor, now, func(r envdb.Record) {
		if stalled {
			b.pending = append(b.pending, r)
			return
		}
		if !b.tryIngest(r) {
			b.pending = append(b.pending, r)
			stalled = true
		}
	})
	b.cursor = now
	// Everything before the cursor is in the store (or counted as dropped),
	// so the database forgets it: a poller that never stops leaves at most
	// two polls' worth of records behind — the batch stamped at this instant
	// and the one inserted before the next drain — and Scan stays O(that).
	// While anything is parked the database is left whole, the readable
	// copy of what the store has not accepted yet.
	if len(b.pending) == 0 {
		b.db.Prune(now)
	}
	b.parked.Store(int64(len(b.pending)))
}

// tryIngest moves one record into the store. It reports false only for
// failures that may heal on retry (the caller parks the record); records
// rejected as out-of-order are dropped and counted, since replaying them
// is futile.
func (b *EnvDBBridge) tryIngest(r envdb.Record) bool {
	key := SeriesKey{Node: string(r.Location), Backend: envDBBackend, Domain: r.Sensor}
	err := b.store.Ingest(key, r.Unit, r.Time+b.Offset, r.Value)
	if err == nil {
		b.moved.Add(1)
		return true
	}
	b.err = fmt.Errorf("telemetry: envdb bridge: %s/%s: %w", r.Location, r.Sensor, err)
	if errors.Is(err, ErrOutOfOrder) {
		b.dropped.Add(1)
		return true
	}
	return false
}

// Stop cancels future drains.
func (b *EnvDBBridge) Stop() {
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
}

// Moved reports how many records have been ingested so far.
func (b *EnvDBBridge) Moved() int { return int(b.moved.Load()) }

// Pending reports how many scanned records are parked awaiting a healthy
// store.
func (b *EnvDBBridge) Pending() int { return int(b.parked.Load()) }

// Dropped reports how many records the store permanently rejected as
// out-of-order.
func (b *EnvDBBridge) Dropped() int { return int(b.dropped.Load()) }

// Err reports the most recent ingest failure, if any; draining continues
// past failures the way MonEQ keeps polling through backend faults. Unlike
// the counters it is plain state: read it where the bridge's clock is
// parked (an epoch barrier), not from another goroutine mid-advance.
func (b *EnvDBBridge) Err() error { return b.err }
