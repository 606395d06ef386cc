package envdb

import (
	"strings"
	"testing"
	"time"

	"envmon/internal/core"
)

func TestBackfillServesNewestPerSensor(t *testing.T) {
	db := New()
	loc := Location("R00-B0")
	db.Insert(Record{Time: 60 * time.Second, Location: loc, Sensor: "output_power", Value: 1800, Unit: "W"})
	db.Insert(Record{Time: 60 * time.Second, Location: loc, Sensor: "input_power", Value: 2000, Unit: "W"})
	db.Insert(Record{Time: 120 * time.Second, Location: loc, Sensor: "output_power", Value: 1900, Unit: "W"})
	// Another location must not leak in.
	db.Insert(Record{Time: 120 * time.Second, Location: "R00-B1", Sensor: "output_power", Value: 7777, Unit: "W"})
	// An unmapped sensor is skipped, not served.
	db.Insert(Record{Time: 120 * time.Second, Location: loc, Sensor: "coolant_flow", Value: 95, Unit: "gpm"})

	b := NewBackfill(db, loc)
	rs, err := b.CollectInto(nil, 130*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("readings = %d, want 2: %+v", len(rs), rs)
	}
	// Emission order is the sensor-table order: output_power first.
	total := core.Capability{Component: core.Total, Metric: core.Power}
	if rs[0].Cap != total || rs[0].Value != 1900 || rs[0].Time != 120*time.Second {
		t.Errorf("Total Power reading = %+v, want the newest record (1900 W @120s)", rs[0])
	}
	if rs[1].Cap != (core.Capability{Component: core.Board, Metric: core.Power}) || rs[1].Value != 2000 {
		t.Errorf("Device Power reading = %+v", rs[1])
	}
	if b.Skipped() != 1 {
		t.Errorf("Skipped = %d, want 1 (coolant_flow)", b.Skipped())
	}
	if b.Queries() != 1 {
		t.Errorf("Queries = %d", b.Queries())
	}
}

func TestBackfillEmptyWindowIsAnError(t *testing.T) {
	db := New()
	loc := Location("R00-B0")
	db.Insert(Record{Time: time.Second, Location: loc, Sensor: "output_power", Value: 1800, Unit: "W"})
	b := NewBackfill(db, loc)
	rs, err := b.CollectInto(nil, time.Second+BackfillWindow+time.Hour) // record is far outside the window
	if err == nil {
		t.Fatal("stale database accepted; must error so the chain sees a failed read, not zero power")
	}
	if len(rs) != 0 {
		t.Errorf("readings = %+v alongside the error", rs)
	}
	if _, err := b.CollectInto(nil, time.Second+BackfillWindow); err != nil {
		t.Errorf("record inside the window: %v", err)
	}
}

func TestBackfillRegistered(t *testing.T) {
	db := New()
	db.Insert(Record{Time: time.Second, Location: "R00-B0", Sensor: "output_power", Value: 1800, Unit: "W"})
	key := BackfillQuery.Key
	col, err := core.Build(key, BackfillTarget{DB: db, Location: "R00-B0"})
	if err != nil {
		t.Fatal(err)
	}
	if col.Platform() != core.BlueGeneQ || col.Method() != "envdb backfill" {
		t.Errorf("identity = %v/%q", col.Platform(), col.Method())
	}
	if col.MinInterval() != DefaultPollInterval {
		t.Errorf("MinInterval = %v, want the database polling cadence", col.MinInterval())
	}
	// Bad targets are rejected with the sentinel.
	if _, err := core.Build(key, BackfillTarget{}); err == nil || !strings.Contains(err.Error(), "database") {
		t.Errorf("nil DB accepted: %v", err)
	}
	if _, err := core.Build(key, 42); err == nil {
		t.Error("bad target type accepted")
	}
}
