package envdb

import (
	"fmt"
	"time"

	"envmon/internal/core"
)

// BackfillQueryCost models one query against the central database server —
// a remote round trip, slower than the on-card EMON read but available even
// when the card's own query path is down.
const BackfillQueryCost = 2 * time.Millisecond

// DefaultBackfillWindow is how far back a Backfill collector looks for
// records. Two maximum polling intervals guarantee at least one batch from
// any conforming poller, however slowly it is configured.
const DefaultBackfillWindow = 2 * MaxPollInterval

// Backfill serves a location's recent environmental-database records as
// core.Readings — the BG/Q fallback path. The paper's two BG/Q mechanisms
// are the per-job EMON query and the central environmental database; when
// EMON is unreachable (node card lost, service network partition), the
// database still holds the bulk-power view of the card, fed independently
// by the infrastructure pollers. A resilience chain uses this collector as
// the last source behind EMON: coarser (one batch per polling interval,
// 60–1800 s) and staler, but alive.
//
// Collect reports the newest record of each known sensor inside the
// lookback window, with Reading.Time set to the record's own timestamp —
// data here can lag the query time by a full polling interval, the same
// staleness convention EMON's generation timestamps use.
type Backfill struct {
	db     *DB
	loc    Location
	window time.Duration
	// stats
	queries int
	skipped int // records whose sensor has no capability mapping
}

// BackfillTarget is the registry target for the "envdb backfill" backend:
// the database to query and the location whose records to serve.
type BackfillTarget struct {
	DB       *DB
	Location Location
}

// NewBackfill returns a collector over db for the given location, with the
// default lookback window.
func NewBackfill(db *DB, loc Location) *Backfill {
	return &Backfill{db: db, loc: loc, window: DefaultBackfillWindow}
}

// SetWindow overrides the lookback window (non-positive restores the
// default).
func (b *Backfill) SetWindow(w time.Duration) {
	if w <= 0 {
		w = DefaultBackfillWindow
	}
	b.window = w
}

// Location returns the location this collector serves.
func (b *Backfill) Location() Location { return b.loc }

// Queries reports how many database queries this collector has issued.
func (b *Backfill) Queries() int { return b.queries }

// Skipped reports how many records were ignored because their sensor name
// has no capability mapping.
func (b *Backfill) Skipped() int { return b.skipped }

// Platform implements core.Collector.
func (b *Backfill) Platform() core.Platform { return core.BlueGeneQ }

// Method implements core.Collector.
func (b *Backfill) Method() string { return "envdb backfill" }

// Cost implements core.Collector.
func (b *Backfill) Cost() time.Duration { return BackfillQueryCost }

// MinInterval implements core.Collector: the database gains new data only
// as fast as its pollers insert it, so querying below the average polling
// interval returns the same records again.
func (b *Backfill) MinInterval() time.Duration { return DefaultPollInterval }

// backfillSensor maps one environmental-database sensor name onto the
// vendor-neutral capability taxonomy. The emission order below is the
// deterministic reading order of every Collect.
type backfillSensor struct {
	name string
	cap  core.Capability
}

// backfillSensors lists the mappable sensors in emission order. output_*
// is the DC side of the bulk power modules — the card's own consumption,
// the quantity EMON's Total Power series reports — so a fallback chain
// continues the primary's series with the database's view of the same
// number. input_* is the AC feed side, a device-level quantity.
var backfillSensors = []backfillSensor{
	{"output_power", core.Capability{Component: core.Total, Metric: core.Power}},
	{"output_current", core.Capability{Component: core.Total, Metric: core.Current}},
	{"input_power", core.Capability{Component: core.Board, Metric: core.Power}},
	{"input_current", core.Capability{Component: core.Board, Metric: core.Current}},
	{"coolant_inlet_temp", core.Capability{Component: core.Intake, Metric: core.Temperature}},
	{"coolant_outlet_temp", core.Capability{Component: core.Exhaust, Metric: core.Temperature}},
	{"service_card_voltage", core.Capability{Component: core.Board, Metric: core.Voltage}},
}

// CollectInto implements core.Collector: one database query per poll,
// reduced to the newest record per mappable sensor. An empty window is an
// error — "the database has nothing recent" must look like a failed read to
// the resilience layer, not like a reading of zero.
func (b *Backfill) CollectInto(buf []core.Reading, now time.Duration) ([]core.Reading, error) {
	b.queries++
	from := now - b.window
	if from < 0 {
		from = 0
	}
	// newest[i] is the latest record seen for backfillSensors[i]; Scan
	// visits insertion order, and per (location, sensor) insertion order is
	// time order, so "last seen wins" selects the newest.
	var newest [numBackfillSensors]Record
	var seen [numBackfillSensors]bool
	any := false
	b.db.Scan(from, now, func(r Record) {
		if r.Location != b.loc {
			return
		}
		i := backfillIndex(r.Sensor)
		if i < 0 {
			b.skipped++
			return
		}
		newest[i] = r
		seen[i] = true
		any = true
	})
	out := buf[:0]
	if !any {
		return out, fmt.Errorf("envdb: backfill %s: no records in [%v, %v)", b.loc, from, now)
	}
	for i, s := range backfillSensors {
		if !seen[i] {
			continue
		}
		out = append(out, core.Reading{
			Cap:   s.cap,
			Value: newest[i].Value,
			Unit:  newest[i].Unit,
			Time:  newest[i].Time,
		})
	}
	return out, nil
}

// numBackfillSensors mirrors len(backfillSensors) as a constant so the
// poll path can use stack arrays instead of allocating.
const numBackfillSensors = 7

func backfillIndex(sensor string) int {
	for i := range backfillSensors {
		if backfillSensors[i].name == sensor {
			return i
		}
	}
	return -1
}

func init() {
	if len(backfillSensors) != numBackfillSensors {
		panic("envdb: numBackfillSensors out of date")
	}
	core.Register(core.BackendKey{Platform: core.BlueGeneQ, Method: "envdb backfill"}, func(target any) (core.Collector, error) {
		switch t := target.(type) {
		case BackfillTarget:
			if t.DB == nil {
				return nil, fmt.Errorf("%w: envdb backfill needs a database", core.ErrBadTarget)
			}
			return NewBackfill(t.DB, t.Location), nil
		case *Backfill:
			return t, nil
		default:
			return nil, fmt.Errorf("%w: envdb backfill wants envdb.BackfillTarget or *envdb.Backfill, got %T", core.ErrBadTarget, target)
		}
	})
}
