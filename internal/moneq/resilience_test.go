package moneq

import (
	"errors"
	"strings"
	"testing"
	"time"

	"envmon/internal/core"
	"envmon/internal/faults"
	"envmon/internal/mic"
	"envmon/internal/micras"
	"envmon/internal/resilience"
	"envmon/internal/scif"
	"envmon/internal/simclock"
	"envmon/internal/workload"
)

// scriptedCollector fails with a distinct message on chosen polls, so tests
// can tell the first error from the last.
type scriptedCollector struct {
	fakeCollector
	failures map[int]string // call number -> error message
}

func (s *scriptedCollector) CollectInto(buf []core.Reading, now time.Duration) ([]core.Reading, error) {
	s.calls++
	if msg, ok := s.failures[s.calls]; ok {
		return buf[:0], errors.New(msg)
	}
	return append(buf[:0], core.Reading{
		Cap:   core.Capability{Component: core.Total, Metric: core.Power},
		Value: float64(s.calls), Unit: "W", Time: now,
	}), nil
}

func TestFirstErrorPreservedAlongsideLast(t *testing.T) {
	clock := simclock.New()
	col := &scriptedCollector{
		fakeCollector: fakeCollector{method: "scripted", min: 100 * time.Millisecond, cost: time.Millisecond},
		failures:      map[int]string{2: "root cause", 5: "follow-on symptom"},
	}
	m, err := Initialize(Config{Clock: clock}, col)
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Second)
	rep, err := m.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	meta := m.Set().Meta
	if got := meta["error/scripted"]; got != "follow-on symptom" {
		t.Errorf("last error = %q, want the most recent failure", got)
	}
	if got := meta["error/scripted/first"]; got != "root cause" {
		t.Errorf("first error = %q, want the root cause", got)
	}
	if got := meta["error/scripted/count"]; got != "2" {
		t.Errorf("error count = %q, want 2", got)
	}
	if rep.Collectors[0].FirstError != "root cause" {
		t.Errorf("CollectorReport.FirstError = %q", rep.Collectors[0].FirstError)
	}
	if rep.Gaps != 2 {
		t.Errorf("Report.Gaps = %d, want 2 (one marker per failed poll)", rep.Gaps)
	}
	// The gaps are on the series, at the failed polls' timestamps.
	s := m.Series("scripted", core.Capability{Component: core.Total, Metric: core.Power})
	if len(s.Gaps) != 2 || s.Gaps[0] != 200*time.Millisecond || s.Gaps[1] != 500*time.Millisecond {
		t.Errorf("series gaps = %v, want [200ms 500ms]", s.Gaps)
	}
}

// TestPhiFallbackChainMeta is the paper's degraded path end to end: the
// in-band SysMgmt API dies, the chain fails over to the MICRAS daemon
// pseudo-file within the same poll's retry budget (the Total Power series
// never gaps), the report Meta records the fallback, and once the fault
// clears a half-open probe restores the primary.
func TestPhiFallbackChainMeta(t *testing.T) {
	clock := simclock.New()
	card := mic.New(mic.Config{Index: 0, Seed: 7})
	card.Run(workload.NoopKernel(time.Minute), 0)
	net := scif.NewNetwork(1)
	svc, err := mic.StartSysMgmt(net, 1, card)
	if err != nil {
		t.Fatal(err)
	}
	primary := faults.Wrap(mic.NewInBandCollector(net, svc), faults.Plan{
		Seed: 1,
		Lose: []faults.Loss{{Method: "SysMgmt API", Instance: -1, At: 5 * time.Second, Until: 10 * time.Second}},
	}, "Xeon Phi/SysMgmt API#0", 0)
	fallback := micras.NewCollector(micras.NewFS(card))
	defer fallback.Close()
	chain := resilience.New(resilience.Policy{
		MaxAttempts:      2,
		Backoff:          time.Millisecond,
		FailureThreshold: 2,
		Cooldown:         2 * time.Second,
		ProbeSuccesses:   1,
	}, primary, fallback)

	m, err := Initialize(Config{Clock: clock, Interval: 200 * time.Millisecond, Node: "c401-001"}, chain)
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(15 * time.Second)
	rep, err := m.Finalize()
	if err != nil {
		t.Fatal(err)
	}

	cr := rep.Collectors[0]
	if cr.Method != "SysMgmt API" {
		t.Fatalf("chain method = %q, want the primary's identity", cr.Method)
	}
	if cr.Fallbacks == 0 {
		t.Error("no fallbacks recorded; the MICRAS path never served")
	}
	if cr.Trips == 0 {
		t.Error("breaker never tripped under a 5-second outage")
	}
	if cr.Errors != 0 {
		t.Errorf("Errors = %d; the fallback should have kept every poll whole", cr.Errors)
	}
	if rep.Gaps != 0 {
		t.Errorf("Gaps = %d; degraded polls must still produce data", rep.Gaps)
	}
	meta := m.Set().Meta
	rm, ok := meta["resilience/SysMgmt API"]
	if !ok {
		t.Fatal("Meta lacks the resilience counters")
	}
	if !strings.Contains(rm, "fallbacks=") || strings.Contains(rm, "fallbacks=0 ") {
		t.Errorf("resilience meta %q does not record the fallback", rm)
	}
	// Every poll produced Total Power — healthy from the API, degraded from
	// the daemon file — so the series is gapless at the session cadence.
	s := m.Series("SysMgmt API", core.Capability{Component: core.Total, Metric: core.Power})
	if s == nil || s.Len() != 75 {
		t.Fatalf("Total Power samples = %v, want 75 (15s / 200ms)", s)
	}
	// After the fault cleared, the half-open probe re-closed the primary.
	st := chain.Status()
	if st[0].Method != "SysMgmt API" || st[0].State != "closed" {
		t.Errorf("primary breaker = %+v, want closed after recovery", st[0])
	}
	if st[0].Trips < 1 {
		t.Errorf("primary trips = %d, want >= 1", st[0].Trips)
	}
	stats := chain.Stats()
	if stats.Dropped != 0 {
		t.Errorf("Dropped = %d, want 0", stats.Dropped)
	}
}
