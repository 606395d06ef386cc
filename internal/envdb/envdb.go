// Package envdb implements the environmental database substrate: the
// simulation's stand-in for the IBM DB2 database into which Blue Gene
// systems "periodically sample and gather environmental data from various
// sensors and store this collected information together with the timestamp
// and location information".
//
// The store is an append-mostly in-memory time-series table keyed by
// (location, sensor). Pollers attach to the simulation clock and insert one
// batch of records per polling interval; the paper notes the interval is
// configurable between 60 and 1800 seconds and averages about 4 minutes on
// Mira, and that shorter intervals would exceed the database server's
// processing capacity — we model that capacity limit explicitly.
package envdb

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"envmon/internal/core"
)

// Paper-stated bounds on the environmental polling interval.
const (
	MinPollInterval = 60 * time.Second
	MaxPollInterval = 1800 * time.Second
	// DefaultPollInterval is the ~4 minute average the paper reports.
	DefaultPollInterval = 240 * time.Second
)

// Location identifies where a sensor lives, in Blue Gene naming style
// (e.g. "R00-M0-N04" for a node board, "R00-B2" for a bulk power module).
type Location string

// Record is one stored observation.
type Record struct {
	Time     time.Duration // simulated timestamp of the observation
	Location Location
	Sensor   string // e.g. "input_power", "output_current", "coolant_temp"
	Value    float64
	Unit     string
}

// DB is the environmental database. Safe for concurrent use.
type DB struct {
	mu      sync.RWMutex
	records []Record
	// capacity limiting (the paper: a shorter polling interval "would
	// exceed the server's processing capacity")
	maxRecordsPerSecond float64
	inserted            int
	dropped             int
}

// New returns an empty database with no ingest limit.
func New() *DB { return &DB{} }

// NewWithCapacity returns a database that refuses ingest beyond
// maxRecordsPerSecond (averaged over the full simulated run). A
// non-positive limit means unlimited.
func NewWithCapacity(maxRecordsPerSecond float64) *DB {
	return &DB{maxRecordsPerSecond: maxRecordsPerSecond}
}

// Insert stores a record. It reports false when the record was dropped
// because the ingest rate limit was exceeded.
func (db *DB) Insert(rec Record) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.maxRecordsPerSecond > 0 && rec.Time > 0 {
		rate := float64(db.inserted+1) / rec.Time.Seconds()
		if rate > db.maxRecordsPerSecond {
			db.dropped++
			return false
		}
	}
	db.inserted++
	db.records = append(db.records, rec)
	return true
}

// Len reports the number of stored records.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.records)
}

// Dropped reports how many records the ingest limiter refused.
func (db *DB) Dropped() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.dropped
}

// Prune deletes records older than before, returning how many were
// removed — the retention housekeeping a production environmental database
// runs so "the resulting volume of data" stays within storage budgets.
func (db *DB) Prune(before time.Duration) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	kept := db.records[:0]
	removed := 0
	for _, r := range db.records {
		if r.Time >= before {
			kept = append(kept, r)
		} else {
			removed++
		}
	}
	db.records = kept
	return removed
}

// Scan visits every record with from <= Time < to in insertion order,
// without allocating a result slice — the cheap path for consumers that
// drain the database incrementally (the telemetry bridge). Per
// (location, sensor), insertion order is time order, because pollers only
// move forward in time. fn must not call back into the database.
func (db *DB) Scan(from, to time.Duration, fn func(Record)) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, r := range db.records {
		if r.Time >= from && r.Time < to {
			fn(r)
		}
	}
}

// Query returns records for a location and sensor in [from, to), sorted by
// time. Empty location or sensor matches everything.
func (db *DB) Query(loc Location, sensor string, from, to time.Duration) []Record {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []Record
	for _, r := range db.records {
		if r.Time < from || r.Time >= to {
			continue
		}
		if loc != "" && r.Location != loc {
			continue
		}
		if sensor != "" && r.Sensor != sensor {
			continue
		}
		out = append(out, r)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}

// Source produces one batch of records when polled — a service card, node
// board, or bulk power module with attached sensors.
type Source interface {
	// Location identifies the hardware position of the source.
	Location() Location
	// Sample reads every sensor on the source at the given simulated time.
	Sample(now time.Duration) []Record
}

// Poller drives periodic collection of a set of sources into the database.
type Poller struct {
	db       *DB
	interval time.Duration
	sources  []Source
	timer    core.Timer
	polls    int
}

// NewPoller validates the interval against the paper's 60–1800 s bounds and
// returns an unstarted poller.
func NewPoller(db *DB, interval time.Duration, sources ...Source) (*Poller, error) {
	if interval < MinPollInterval || interval > MaxPollInterval {
		return nil, fmt.Errorf("envdb: poll interval %v outside [%v, %v]",
			interval, MinPollInterval, MaxPollInterval)
	}
	return &Poller{db: db, interval: interval, sources: sources}, nil
}

// Start schedules the poller on the clock, with the first poll one interval
// from now.
func (p *Poller) Start(clock core.Clock) {
	if p.timer != nil {
		return
	}
	p.timer = clock.Every(p.interval, func(now time.Duration) {
		p.polls++
		for _, src := range p.sources {
			for _, rec := range src.Sample(now) {
				p.db.Insert(rec)
			}
		}
	})
}

// Polls reports how many polling rounds have completed.
func (p *Poller) Polls() int { return p.polls }
