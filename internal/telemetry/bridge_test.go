package telemetry

import (
	"errors"
	"testing"
	"time"

	"envmon/internal/envdb"
	"envmon/internal/simclock"
)

// flakyIngester interposes a controllable outage in front of a real store.
type flakyIngester struct {
	st      *Store
	failing bool
	fails   int
}

func (f *flakyIngester) Ingest(key SeriesKey, unit string, t time.Duration, v float64) error {
	if f.failing {
		f.fails++
		return errors.New("store outage")
	}
	return f.st.Ingest(key, unit, t, v)
}

// TestEnvDBBridgeLosesNothingThroughTransientOutage is the regression test
// for the pending queue: a store outage spanning several drains must delay
// records, never drop them. Before the queue existed, the cursor advanced
// past failed records and a transient error silently lost data.
func TestEnvDBBridgeLosesNothingThroughTransientOutage(t *testing.T) {
	clock := simclock.New()
	db := envdb.New()
	st := New(Options{})
	flaky := &flakyIngester{st: st}
	bridge, err := StartEnvDBBridge(clock, db, flaky, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	minute := 0
	clock.Every(60*time.Second, func(now time.Duration) {
		minute++
		db.Insert(envdb.Record{Time: now, Location: "R00-B0", Sensor: "input_power", Value: float64(minute), Unit: "W"})
	})

	clock.Advance(3 * time.Minute) // healthy: batches 1-2 in, 3 pending next round
	flaky.failing = true
	clock.Advance(3 * time.Minute) // outage: drains at 4m, 5m, 6m all fail
	if bridge.Err() == nil {
		t.Fatal("outage never surfaced through Err")
	}
	if bridge.Pending() == 0 {
		t.Fatal("no records parked during the outage; the queue is not engaged")
	}
	if got := st.Samples(); got != 2 {
		t.Fatalf("samples during outage = %d, want the 2 pre-outage ones", got)
	}
	// While records are parked the database is left alone: it stays the
	// readable copy of what the store has not taken yet.
	if got := db.Len(); got < bridge.Pending() {
		t.Errorf("db.Len() = %d during the outage with %d parked; pruned past the backlog", got, bridge.Pending())
	}
	flaky.failing = false
	clock.Advance(8 * time.Minute) // heal and run out the clock

	if bridge.Pending() != 0 {
		t.Errorf("Pending = %d after recovery, want 0", bridge.Pending())
	}
	if got := db.Len(); got > 2 {
		t.Errorf("db.Len() = %d after recovery, want <= 2 (two polls' worth)", got)
	}
	if bridge.Dropped() != 0 {
		t.Errorf("Dropped = %d, want 0 — a transient outage must lose zero points", bridge.Dropped())
	}
	// 14 minutes of batches minus the straggler stamped at the final instant.
	if bridge.Moved() != 13 {
		t.Errorf("Moved = %d, want 13", bridge.Moved())
	}
	frames := st.Query(Query{Node: "R00-B0", Backend: envDBBackend, Domain: "input_power"})
	if len(frames) != 1 {
		t.Fatalf("frames = %d, want 1", len(frames))
	}
	pts := frames[0].Points
	if len(pts) != 13 {
		t.Fatalf("points = %d, want 13 (every batch before the straggler)", len(pts))
	}
	for i, p := range pts {
		if p.Mean != float64(i+1) {
			t.Fatalf("point %d = %v, want %d — replay must preserve database order", i, p.Mean, i+1)
		}
	}
}

// TestEnvDBBridgeDropsOnlyOutOfOrder: records the store permanently rejects
// are counted and skipped, not replayed forever.
func TestEnvDBBridgeDropsOnlyOutOfOrder(t *testing.T) {
	clock := simclock.New()
	db := envdb.New()
	st := New(Options{})
	key := SeriesKey{Node: "R00-B0", Backend: envDBBackend, Domain: "input_power"}
	// A sample far in the future makes everything the bridge drains
	// out-of-order for this series.
	if err := st.Ingest(key, "W", time.Hour, 1); err != nil {
		t.Fatal(err)
	}
	bridge, err := StartEnvDBBridge(clock, db, st, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	clock.Every(60*time.Second, func(now time.Duration) {
		db.Insert(envdb.Record{Time: now, Location: "R00-B0", Sensor: "input_power", Value: 2, Unit: "W"})
	})
	clock.Advance(3 * time.Minute)
	if bridge.Dropped() != 2 {
		t.Errorf("Dropped = %d, want 2 (batches before the straggler)", bridge.Dropped())
	}
	if bridge.Pending() != 0 {
		t.Errorf("Pending = %d, want 0 — out-of-order records must not be parked", bridge.Pending())
	}
	if !errors.Is(bridge.Err(), ErrOutOfOrder) {
		t.Errorf("Err = %v, want ErrOutOfOrder", bridge.Err())
	}
}
