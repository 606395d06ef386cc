package powercap

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func newTest(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// fresh builds a fresh observation at now reading watts.
func fresh(now time.Duration, watts float64) Observation {
	return Observation{Now: now, MeasuredW: watts, Valid: true, AgeKnown: true, Age: 0}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},                          // no budget
		{BudgetW: -5},               // negative budget
		{BudgetW: 100, FloorW: 150}, // floor above budget
		{BudgetW: 100, MaxW: 50},    // max below budget
		{BudgetW: 100, Gain: -1},    // negative gain
		{BudgetW: 100, Ladder: []float64{0.5, 0.8}}, // ascending ladder
		{BudgetW: 100, Ladder: []float64{1.5, 0.5}}, // fraction above 1
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d (%+v) accepted", i, cfg)
		}
	}
	c := newTest(t, Config{BudgetW: 1000})
	cfg := c.Config()
	if cfg.FloorW != 200 || cfg.MaxW != 2000 || cfg.Freshness != 3*time.Second {
		t.Errorf("defaults = %+v", cfg)
	}
	if c.Cap() != cfg.MaxW || c.Mode() != ModeNominal {
		t.Errorf("initial cap %v mode %v", c.Cap(), c.Mode())
	}
}

// TestCappingConvergesAndHolds drives a breach and checks the cap walks
// down (slew-limited), then holds inside the deadband without hunting.
func TestCappingConvergesAndHolds(t *testing.T) {
	c := newTest(t, Config{BudgetW: 1000, SlewW: 50, Gain: 0.5})
	d := c.Step(fresh(0, 1200))
	if d.Mode != ModeCapping {
		t.Fatalf("mode = %v after breach", d.Mode)
	}
	// error 200 W × gain 0.5 = 100 W wanted, slew-limited to 50 W.
	if d.CapW != 2000-50 {
		t.Errorf("cap = %v, want 1950 (slew-limited)", d.CapW)
	}
	// Converge: as measured falls into the deadband the cap stops moving.
	d = c.Step(fresh(1*time.Second, 990))
	hold := d.CapW
	if d.Reason != "in band" {
		t.Errorf("reason = %q inside deadband", d.Reason)
	}
	d = c.Step(fresh(2*time.Second, 995))
	if d.CapW != hold {
		t.Errorf("cap moved inside deadband: %v -> %v", hold, d.CapW)
	}
}

// TestSlewLimitsEveryStep checks no single step moves the cap more than
// SlewW in either direction, whatever the error.
func TestSlewLimitsEveryStep(t *testing.T) {
	c := newTest(t, Config{BudgetW: 1000, SlewW: 30, RecoverHold: time.Second})
	prev := c.Cap()
	obs := []Observation{
		fresh(0, 5000),             // huge breach
		fresh(1*time.Second, 5000), // still breaching
		fresh(2*time.Second, 100),  // huge headroom
		fresh(3*time.Second, 100),  // still idle
		{Now: 4 * time.Second},     // no data
		fresh(5*time.Second, 100),  // back
		fresh(10*time.Second, 100), // past recover hold
	}
	for _, o := range obs {
		d := c.Step(o)
		if diff := d.CapW - prev; diff > 30.0001 || diff < -1000.0001 {
			// Downward stale clamp may exceed slew (fail-safe); upward
			// movement must never exceed SlewW.
			t.Errorf("t=%v cap moved %+v (cap %v)", o.Now, diff, d.CapW)
		}
		if d.CapW > prev && d.CapW-prev > 30.0001 {
			t.Errorf("t=%v cap raised by %v > slew", o.Now, d.CapW-prev)
		}
		prev = d.CapW
	}
}

// TestStaleFailSafe: an observation past the freshness window clamps the
// cap to the budget — "no data" never reads as headroom — and the clamp
// is idempotent, so a blip cannot ratchet the cap to the floor.
func TestStaleFailSafe(t *testing.T) {
	c := newTest(t, Config{BudgetW: 1000, Freshness: 2 * time.Second})
	c.Step(fresh(0, 500)) // nominal, cap at max (2000)
	if c.Cap() != 2000 {
		t.Fatalf("cap = %v, want uncapped", c.Cap())
	}
	d := c.Step(Observation{Now: time.Second, MeasuredW: 500, Valid: true, AgeKnown: true, Age: 5 * time.Second})
	if d.Mode != ModeStale || d.CapW != 1000 {
		t.Fatalf("stale step: mode %v cap %v, want stale 1000", d.Mode, d.CapW)
	}
	// Idempotent: more stale steps inside the watchdog hold the clamp.
	d = c.Step(Observation{Now: 2 * time.Second})
	if d.CapW != 1000 {
		t.Errorf("second stale step moved cap to %v", d.CapW)
	}
	// Age-unknown data is stale too, whatever the value says.
	d = c.Step(Observation{Now: 3 * time.Second, MeasuredW: 100, Valid: true})
	if d.Mode != ModeStale || d.Reason != "age unknown" {
		t.Errorf("age-unknown: mode %v reason %q", d.Mode, d.Reason)
	}
}

// TestWatchdogLadder cuts the feed and checks the cap walks the published
// ladder on schedule, never rises mid-walk, and ends at the floor.
func TestWatchdogLadder(t *testing.T) {
	cfg := Config{
		BudgetW: 1000, FloorW: 250,
		Watchdog: 10 * time.Second, LadderHold: 5 * time.Second,
		Ladder: []float64{0.8, 0.5},
	}
	c := newTest(t, cfg)
	c.Step(fresh(0, 900))
	want := []struct {
		at   time.Duration
		mode Mode
		rung int
		cap  float64
	}{
		{5 * time.Second, ModeStale, -1, 1000},   // inside watchdog: budget clamp
		{10 * time.Second, ModeStale, -1, 1000},  // boundary: still stale
		{11 * time.Second, ModeDegraded, 0, 800}, // rung 0: 0.8×budget
		{14 * time.Second, ModeDegraded, 0, 800}, // held
		{16 * time.Second, ModeDegraded, 1, 500}, // rung 1: 0.5×budget
		{21 * time.Second, ModeDegraded, 2, 250}, // past the ladder: floor
		{60 * time.Second, ModeDegraded, 2, 250}, // floor holds
	}
	for _, w := range want {
		d := c.Step(Observation{Now: w.at})
		if d.Mode != w.mode || d.Rung != w.rung || d.CapW != w.cap {
			t.Errorf("t=%v: mode %v rung %d cap %v, want %v/%d/%v",
				w.at, d.Mode, d.Rung, d.CapW, w.mode, w.rung, w.cap)
		}
	}
	if c.ViolationSeconds() != 0 {
		t.Errorf("violation seconds accrued with no data: %v", c.ViolationSeconds())
	}
}

// TestFlappingCannotOscillate alternates fresh and dead observations and
// checks the actuator command stays put: the stale clamp is idempotent
// and the recovery hold blocks the cap from bouncing back up between
// blips.
func TestFlappingCannotOscillate(t *testing.T) {
	c := newTest(t, Config{BudgetW: 1000, Freshness: time.Second, RecoverHold: 10 * time.Second})
	c.Step(fresh(0, 500))
	c.Step(Observation{Now: 1 * time.Second}) // blip: clamp to budget
	if c.Cap() != 1000 {
		t.Fatalf("cap = %v after blip", c.Cap())
	}
	var caps []float64
	for i := 2; i < 10; i++ {
		o := fresh(time.Duration(i)*time.Second, 500)
		if i%2 == 1 {
			o = Observation{Now: time.Duration(i) * time.Second}
		}
		caps = append(caps, c.Step(o).CapW)
	}
	for i, got := range caps {
		if got != 1000 {
			t.Errorf("step %d: flapping moved cap to %v", i, got)
		}
	}
}

// TestRecoveryIsSlow: after data returns for RecoverHold, the cap rises
// again — one slew step at a time — until nominal.
func TestRecoveryIsSlow(t *testing.T) {
	c := newTest(t, Config{
		BudgetW: 1000, MaxW: 1200, SlewW: 100,
		Freshness: time.Second, RecoverHold: 3 * time.Second,
	})
	c.Step(fresh(0, 500))
	c.Step(Observation{Now: 1 * time.Second}) // stale: cap 1000
	d := c.Step(fresh(2*time.Second, 500))
	if d.Reason != "recover hold" || d.CapW != 1000 {
		t.Fatalf("t=2s: reason %q cap %v", d.Reason, d.CapW)
	}
	d = c.Step(fresh(4*time.Second, 500)) // 3s past the blip: raise allowed
	if d.CapW != 1100 {
		t.Errorf("first recovery step cap = %v, want 1100 (one slew)", d.CapW)
	}
	d = c.Step(fresh(5*time.Second, 500))
	if d.CapW != 1200 || d.Mode != ModeNominal {
		t.Errorf("recovered: cap %v mode %v, want 1200 nominal", d.CapW, d.Mode)
	}
}

// TestViolationAccounting: violation seconds accrue only while fresh
// measurements breach budget+tolerance — never during stale or degraded
// intervals.
func TestViolationAccounting(t *testing.T) {
	c := newTest(t, Config{BudgetW: 1000, ToleranceW: 50})
	c.Step(fresh(0, 1100))                     // breach, but dt=0 on the first step
	c.Step(fresh(2*time.Second, 1100))         // +2s in breach
	c.Step(fresh(3*time.Second, 1040))         // inside tolerance
	c.Step(Observation{Now: 60 * time.Second}) // a long dead interval
	c.Step(Observation{Now: 120 * time.Second})
	if got := c.ViolationSeconds(); got != 2 {
		t.Errorf("violation seconds = %v, want 2", got)
	}
}

// TestDecisionLogByteStable replays the same observation sequence through
// two controllers and checks the CSV logs are byte-identical — the replay
// property CI leans on.
func TestDecisionLogByteStable(t *testing.T) {
	obs := []Observation{
		fresh(0, 900),
		fresh(1*time.Second, 1234.5678),
		{Now: 2 * time.Second},
		{Now: 20 * time.Second},
		fresh(21*time.Second, 333.25),
	}
	run := func() []byte {
		c := newTest(t, Config{BudgetW: 1000})
		for _, o := range obs {
			c.Step(o)
		}
		var buf bytes.Buffer
		if err := c.Log().WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("logs differ:\n%s\nvs\n%s", a, b)
	}
	if !strings.HasPrefix(string(a), "t_ns,mode,cap_w,measured_w,fresh,rung,reason\n") {
		t.Errorf("missing header: %.80s", a)
	}
	lines := strings.Count(string(a), "\n")
	if lines != len(obs)+1 {
		t.Errorf("log has %d lines, want %d", lines, len(obs)+1)
	}
	// The degradation transitions are in the log.
	for _, want := range []string{",stale,", ",degraded,", ",capping,"} {
		if !strings.Contains(string(a), want) {
			t.Errorf("log missing %q:\n%s", want, a)
		}
	}
}

// TestLogRingEviction checks the ring keeps the newest decisions and
// counts what it dropped.
func TestLogRingEviction(t *testing.T) {
	l := newLog(3)
	for i := 0; i < 5; i++ {
		l.Append(Decision{Now: time.Duration(i) * time.Second})
	}
	ds := l.Decisions()
	if len(ds) != 3 || ds[0].Now != 2*time.Second || ds[2].Now != 4*time.Second {
		t.Errorf("retained = %+v", ds)
	}
	if l.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", l.Dropped())
	}
}
