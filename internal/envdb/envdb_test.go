package envdb

import (
	"testing"
	"time"

	"envmon/internal/simclock"
)

func rec(t time.Duration, loc Location, sensor string, v float64) Record {
	return Record{Time: t, Location: loc, Sensor: sensor, Value: v, Unit: "W"}
}

func TestInsertAndQuery(t *testing.T) {
	db := New()
	db.Insert(rec(time.Second, "R00-B0", "input_power", 1000))
	db.Insert(rec(2*time.Second, "R00-B0", "input_power", 1100))
	db.Insert(rec(2*time.Second, "R00-B1", "input_power", 900))
	db.Insert(rec(3*time.Second, "R00-B0", "output_power", 950))

	got := db.Query("R00-B0", "input_power", 0, time.Minute)
	if len(got) != 2 || got[0].Value != 1000 || got[1].Value != 1100 {
		t.Fatalf("Query = %+v", got)
	}
	// half-open interval
	got = db.Query("R00-B0", "input_power", time.Second, 2*time.Second)
	if len(got) != 1 || got[0].Value != 1000 {
		t.Fatalf("half-open Query = %+v", got)
	}
	// wildcard location
	got = db.Query("", "input_power", 0, time.Minute)
	if len(got) != 3 {
		t.Fatalf("wildcard loc Query len = %d", len(got))
	}
	// wildcard sensor
	got = db.Query("R00-B0", "", 0, time.Minute)
	if len(got) != 3 {
		t.Fatalf("wildcard sensor Query len = %d", len(got))
	}
}

func TestQuerySortedByTime(t *testing.T) {
	db := New()
	db.Insert(rec(3*time.Second, "a", "s", 3))
	db.Insert(rec(1*time.Second, "a", "s", 1))
	db.Insert(rec(2*time.Second, "a", "s", 2))
	got := db.Query("a", "s", 0, time.Minute)
	for i := 1; i < len(got); i++ {
		if got[i].Time < got[i-1].Time {
			t.Fatalf("not sorted: %+v", got)
		}
	}
}

func TestCapacityLimiter(t *testing.T) {
	db := NewWithCapacity(1) // one record per simulated second
	ok1 := db.Insert(rec(time.Second, "a", "s", 1))
	ok2 := db.Insert(rec(time.Second, "a", "s", 2)) // second record at t=1s: rate 2/s
	if !ok1 || ok2 {
		t.Fatalf("limiter: ok1=%v ok2=%v, want true,false", ok1, ok2)
	}
	if db.Dropped() != 1 || db.Len() != 1 {
		t.Fatalf("Dropped=%d Len=%d", db.Dropped(), db.Len())
	}
	// later in simulated time the budget recovers
	if !db.Insert(rec(10*time.Second, "a", "s", 3)) {
		t.Fatal("limiter did not recover with time")
	}
}

// TestPollerAgainstCapacityLimitedDB models the paper's warning that a
// shorter polling interval "would exceed the server's processing capacity":
// a poller at the minimum legal interval against an undersized database
// sheds records, and both sides of the ledger stay consistent.
func TestPollerAgainstCapacityLimitedDB(t *testing.T) {
	clock := simclock.New()
	// 2 records per 60 s poll = 1/30 rec/s offered; grant half of that.
	db := NewWithCapacity(1.0 / 60.0)
	src := &fakeSource{loc: "R00-B0"}
	p, err := NewPoller(db, MinPollInterval, src)
	if err != nil {
		t.Fatal(err)
	}
	p.Start(clock)
	clock.Advance(30 * time.Minute) // 30 polls, 60 records offered
	if p.Polls() != 30 {
		t.Fatalf("Polls = %d, want 30", p.Polls())
	}
	if db.Dropped() == 0 {
		t.Fatal("undersized database dropped nothing")
	}
	if db.Len()+db.Dropped() != 60 {
		t.Fatalf("ledger broken: Len=%d + Dropped=%d, want 60 offered", db.Len(), db.Dropped())
	}
	// The stored stream stays within the configured rate.
	if rate := float64(db.Len()) / (30 * 60); rate > 1.0/60.0 {
		t.Errorf("stored rate %.4f rec/s exceeds capacity", rate)
	}
	// An interval below the paper's minimum is rejected outright — the
	// operator cannot even configure a poller that would flood the server.
	if _, err := NewPoller(db, MinPollInterval-time.Second, src); err == nil {
		t.Error("interval below MinPollInterval accepted")
	}
}

func TestScanVisitsWindowInInsertionOrder(t *testing.T) {
	db := New()
	for i := 0; i < 10; i++ {
		db.Insert(rec(time.Duration(i)*time.Minute, "a", "s", float64(i)))
	}
	var got []float64
	db.Scan(2*time.Minute, 5*time.Minute, func(r Record) { got = append(got, r.Value) })
	if len(got) != 3 || got[0] != 2 || got[2] != 4 {
		t.Fatalf("Scan[2m,5m) = %v, want [2 3 4]", got)
	}
	// Empty window visits nothing.
	db.Scan(time.Hour, 2*time.Hour, func(Record) { t.Fatal("record outside window visited") })
}

func TestPrune(t *testing.T) {
	db := New()
	for i := 0; i < 10; i++ {
		db.Insert(rec(time.Duration(i)*time.Minute, "a", "s", float64(i)))
	}
	removed := db.Prune(5 * time.Minute)
	if removed != 5 || db.Len() != 5 {
		t.Fatalf("Prune removed %d, kept %d", removed, db.Len())
	}
	got := db.Query("a", "s", 0, time.Hour)
	if got[0].Time != 5*time.Minute {
		t.Errorf("oldest surviving record at %v", got[0].Time)
	}
	if db.Prune(0) != 0 {
		t.Error("no-op Prune removed records")
	}
}

type fakeSource struct {
	loc   Location
	calls int
}

func (f *fakeSource) Location() Location { return f.loc }
func (f *fakeSource) Sample(now time.Duration) []Record {
	f.calls++
	return []Record{
		{Time: now, Location: f.loc, Sensor: "input_power", Value: float64(f.calls), Unit: "W"},
		{Time: now, Location: f.loc, Sensor: "input_current", Value: 20, Unit: "A"},
	}
}

func TestPollerIntervalValidation(t *testing.T) {
	db := New()
	if _, err := NewPoller(db, 30*time.Second); err == nil {
		t.Error("30s interval accepted (below paper's 60s minimum)")
	}
	if _, err := NewPoller(db, time.Hour); err == nil {
		t.Error("1h interval accepted (above paper's 1800s maximum)")
	}
	if _, err := NewPoller(db, DefaultPollInterval); err != nil {
		t.Errorf("default interval rejected: %v", err)
	}
}

func TestPollerCollectsOnSchedule(t *testing.T) {
	clock := simclock.New()
	db := New()
	src := &fakeSource{loc: "R00-B0"}
	p, err := NewPoller(db, 240*time.Second, src)
	if err != nil {
		t.Fatal(err)
	}
	p.Start(clock)
	clock.Advance(20 * time.Minute) // 1200 s -> 5 polls at 240 s
	if p.Polls() != 5 {
		t.Fatalf("Polls = %d, want 5", p.Polls())
	}
	if db.Len() != 10 { // 2 records per poll
		t.Fatalf("Len = %d, want 10", db.Len())
	}
	got := db.Query("R00-B0", "input_power", 0, time.Hour)
	if len(got) != 5 || got[0].Time != 240*time.Second {
		t.Fatalf("first poll at %v, want 240s", got[0].Time)
	}
}

func TestPollerStartIdempotent(t *testing.T) {
	clock := simclock.New()
	db := New()
	src := &fakeSource{loc: "x"}
	p, _ := NewPoller(db, 60*time.Second, src)
	p.Start(clock)
	p.Start(clock) // must not double-schedule
	clock.Advance(time.Minute)
	if p.Polls() != 1 {
		t.Fatalf("Polls = %d after double Start, want 1", p.Polls())
	}
}
