package moneq

import (
	"testing"
	"time"

	"envmon/internal/simclock"
	"envmon/internal/telemetry"
)

// A finalized session's set streams into the telemetry store through a
// SetCursor, under the monitor's node name.
func TestTelemetrySinkStreamsJobData(t *testing.T) {
	clock := simclock.New()
	st := telemetry.New(telemetry.Options{Shards: 2})
	m, err := Initialize(Config{Clock: clock, Node: "n0"}, newFake())
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Second)
	if _, err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.NewSetCursor(st, m.Node(), m.Set()).Flush(); err != nil {
		t.Fatal(err)
	}
	frames := st.Query(telemetry.Query{Node: "n0", Backend: "fake", Domain: "Total Power"})
	if len(frames) != 1 || len(frames[0].Points) != 10 {
		t.Fatalf("telemetry frames = %+v", frames)
	}
}
