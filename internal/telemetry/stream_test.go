package telemetry

import (
	"errors"
	"testing"
	"time"

	"envmon/internal/envdb"
	"envmon/internal/simclock"
	"envmon/internal/trace"
)

func TestSetCursorStreamsIncrementally(t *testing.T) {
	st := New(Options{})
	set := trace.NewSet()
	set.Meta["node"] = "ignored" // the cursor's node takes precedence
	s1 := set.Add(trace.NewSeries("MSR/Total Power", "W"))
	s1.MustAppend(0, 100)
	cur := NewSetCursor(st, "n0", set)

	if err := cur.Flush(); err != nil {
		t.Fatal(err)
	}
	if st.Samples() != 1 {
		t.Fatalf("after first flush: %d samples", st.Samples())
	}
	// New samples and a new series appear between flushes.
	s1.MustAppend(time.Second, 110)
	s2 := set.Add(trace.NewSeries("NVML/Total Power", "W"))
	s2.MustAppend(time.Second, 60)
	if cur.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", cur.Pending())
	}
	if err := cur.Flush(); err != nil {
		t.Fatal(err)
	}
	if st.Samples() != 3 || st.NumSeries() != 2 {
		t.Fatalf("after second flush: %d samples, %d series", st.Samples(), st.NumSeries())
	}
	// Idempotent when nothing new arrived: no duplicates.
	if err := cur.Flush(); err != nil {
		t.Fatal(err)
	}
	if st.Samples() != 3 {
		t.Errorf("no-op flush duplicated samples: %d", st.Samples())
	}
	frames := st.Query(Query{Node: "n0", Backend: "MSR"})
	if len(frames) != 1 || len(frames[0].Points) != 2 {
		t.Fatalf("MSR frames = %+v", frames)
	}
}

func TestSetCursorSteadyStateZeroAllocs(t *testing.T) {
	st := New(Options{})
	set := trace.NewSet()
	s := set.Add(trace.NewSeries("MSR/Total Power", "W"))
	s.Samples = make([]trace.Sample, 0, 4096)
	s.MustAppend(0, 1)
	cur := NewSetCursor(st, "n0", set)
	if err := cur.Flush(); err != nil {
		t.Fatal(err)
	}
	at := time.Second
	allocs := testing.AllocsPerRun(1000, func() {
		s.MustAppend(at, 2)
		at += time.Second
		if err := cur.Flush(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Flush allocates %.1f per op, want 0", allocs)
	}
}

func TestSetCursorResumesAfterError(t *testing.T) {
	st := New(Options{})
	set := trace.NewSet()
	set.Add(trace.NewSeries("MSR/Total Power", "W")).MustAppend(0, 1)
	nv := set.Add(trace.NewSeries("NVML/Total Power", "W"))
	nv.Samples = []trace.Sample{{T: time.Second, V: 2}, {T: 500 * time.Millisecond, V: 3}}
	cur := NewSetCursor(st, "n0", set)
	if err := cur.Flush(); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("err = %v, want ErrOutOfOrder", err)
	}
	// The first series landed, and the second up to the refused sample;
	// the rest of the second is retried from its cursor.
	if st.Samples() != 2 || cur.Pending() != 1 {
		t.Fatalf("samples = %d, pending = %d; want 2, 1", st.Samples(), cur.Pending())
	}
	nv.Samples[0].T = 2 * time.Second // what the store refused, repaired
	if err := cur.Flush(); err != nil {
		t.Fatal(err)
	}
	if st.Samples() != 3 || st.NumSeries() != 2 || cur.Pending() != 0 {
		t.Errorf("after resume: %d samples, %d series, %d pending", st.Samples(), st.NumSeries(), cur.Pending())
	}
}

// TestSetCursorKeepsUnconsumedSuffix: an ingest failure in the middle of a
// series leaves what came before it in the store and off the set, and the
// failing sample plus everything after it at the front of the series — so
// the retry neither loses nor repeats a sample.
func TestSetCursorKeepsUnconsumedSuffix(t *testing.T) {
	st := New(Options{})
	set := trace.NewSet()
	s := set.Add(trace.NewSeries("MSR/Total Power", "W"))
	s.Samples = []trace.Sample{{T: time.Second, V: 1}, {T: 2 * time.Second, V: 2}, {T: 1500 * time.Millisecond, V: 9}, {T: 3 * time.Second, V: 3}}
	s.MustAppendGap(4 * time.Second)
	cur := NewSetCursor(st, "n0", set)
	if err := cur.Flush(); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("err = %v, want ErrOutOfOrder", err)
	}
	if st.Samples() != 2 || cur.Pending() != 2 || s.Samples[0].V != 9 || s.Samples[1].V != 3 || len(s.Gaps) != 1 {
		t.Fatalf("after the failure: store %d samples, set %+v gaps %v", st.Samples(), s.Samples, s.Gaps)
	}
	s.Samples[0].T = 2500 * time.Millisecond // what the store refused, repaired
	if err := cur.Flush(); err != nil {
		t.Fatal(err)
	}
	frames := st.Query(Query{})
	if len(frames) != 1 || len(frames[0].Points) != 4 || len(frames[0].Gaps) != 1 || cur.Pending() != 0 || len(s.Gaps) != 0 {
		t.Fatalf("after the retry: frames %+v, set %+v gaps %v", frames, s.Samples, s.Gaps)
	}
}

func TestEnvDBBridgeDrains(t *testing.T) {
	clock := simclock.New()
	db := envdb.New()
	st := New(Options{})
	bridge, err := StartEnvDBBridge(clock, db, st, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// A fake poller inserts two records per minute, stamped at insert time.
	clock.Every(60*time.Second, func(now time.Duration) {
		db.Insert(envdb.Record{Time: now, Location: "R00-B0", Sensor: "input_power", Value: 1000, Unit: "W"})
		db.Insert(envdb.Record{Time: now, Location: "R00-B0", Sensor: "coolant_temp", Value: 18, Unit: "degC"})
	})
	clock.Advance(10 * time.Minute)
	if err := bridge.Err(); err != nil {
		t.Fatal(err)
	}
	// The bridge drains [cursor, now): the batch stamped at the bridge's
	// own firing instant arrives one round later, so after 10 polls the
	// first 9 batches are in.
	if bridge.Moved() != 18 {
		t.Errorf("Moved = %d, want 18", bridge.Moved())
	}
	frames := st.Query(Query{Node: "R00-B0", Backend: envDBBackend, Domain: "input_power"})
	if len(frames) != 1 || len(frames[0].Points) != 9 {
		t.Fatalf("frames = %+v", frames)
	}
	// What the bridge has handed over is pruned from the database, so a
	// producer that never stops does not grow it: at most the batch stamped
	// at the last drain instant plus the one inserted since — two polls'
	// worth of records, however many drains have run.
	if got, bound := db.Len(), 2*2; got > bound {
		t.Errorf("db.Len() = %d after 10 drains, want <= %d (two polls' worth)", got, bound)
	}
	// One more advance picks up the straggler batch.
	clock.Advance(60 * time.Second)
	if bridge.Moved() != 20 {
		t.Errorf("after extra round: Moved = %d, want 20", bridge.Moved())
	}
	bridge.Stop()
	clock.Advance(10 * time.Minute)
	if bridge.Moved() != 20 {
		t.Errorf("bridge kept draining after Stop")
	}
	// Validation.
	if _, err := StartEnvDBBridge(clock, nil, st, time.Second); err == nil {
		t.Error("nil db accepted")
	}
	if _, err := StartEnvDBBridge(clock, db, st, 0); err == nil {
		t.Error("non-positive interval accepted")
	}
}
