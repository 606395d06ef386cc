package faults

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"envmon/internal/core"
)

// fakeCollector is a healthy backend: every poll yields one power reading
// whose value encodes the poll time.
type fakeCollector struct {
	platform core.Platform
	method   string
	cost     time.Duration
	polls    int
}

func (f *fakeCollector) Platform() core.Platform    { return f.platform }
func (f *fakeCollector) Method() string             { return f.method }
func (f *fakeCollector) Cost() time.Duration        { return f.cost }
func (f *fakeCollector) MinInterval() time.Duration { return 100 * time.Millisecond }
func (f *fakeCollector) CollectInto(buf []core.Reading, now time.Duration) ([]core.Reading, error) {
	f.polls++
	return append(buf[:0], core.Reading{
		Cap:   core.Capability{Component: core.Total, Metric: core.Power},
		Value: float64(now / time.Millisecond),
		Unit:  "W",
		Time:  now,
	}), nil
}

func newFake() *fakeCollector {
	return &fakeCollector{platform: core.NVML, method: "NVML", cost: 220 * time.Microsecond}
}

func TestParsePlanRoundTrip(t *testing.T) {
	spec := "seed=7,transient=0.1,spike=0.05,spikefactor=20,stuck=0.01,stuckfor=2s,flap=30s," +
		"lose=NVML@30s,lose=SysMgmt API#2@5s-20s,lose=EMON#*@1m0s"
	plan, err := ParsePlan(spec, 1)
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	if plan.Seed != 7 || plan.Transient != 0.1 || plan.SpikeFactor != 20 {
		t.Fatalf("parsed plan mismatch: %+v", plan)
	}
	if len(plan.Lose) != 3 {
		t.Fatalf("want 3 losses, got %d", len(plan.Lose))
	}
	if l := plan.Lose[1]; l.Method != "SysMgmt API" || l.Instance != 2 || l.At != 5*time.Second || l.Until != 20*time.Second {
		t.Fatalf("loss 1 parsed wrong: %+v", l)
	}
	if l := plan.Lose[2]; l.Instance != -1 {
		t.Fatalf("wildcard instance parsed wrong: %+v", l)
	}
	replan, err := ParsePlan(plan.String(), 1)
	if err != nil {
		t.Fatalf("re-parse %q: %v", plan.String(), err)
	}
	if fmt.Sprintf("%+v", replan) != fmt.Sprintf("%+v", plan) {
		t.Fatalf("round trip changed plan:\n  %+v\n  %+v", plan, replan)
	}
}

func TestParsePlanDefaultsAndErrors(t *testing.T) {
	plan, err := ParsePlan("", 42)
	if err != nil {
		t.Fatalf("empty spec: %v", err)
	}
	if plan.Enabled() {
		t.Fatal("empty spec must be inert")
	}
	if plan.Seed != 42 {
		t.Fatalf("default seed not applied: %d", plan.Seed)
	}
	for _, bad := range []string{
		"transient", "transient=x", "transient=1.5", "bogus=1",
		"lose=NVML", "lose=NVML@x", "lose=NVML#z@1s", "lose=NVML@10s-5s", "lose=@10s",
		// A NaN probability compares false both ways: an inert plan.
		"transient=NaN", "spike=NaN", "stuck=NaN",
		// A factor that is not finite, or below 1 and not the 0 default.
		"spike=1,spikefactor=NaN", "spike=1,spikefactor=Inf", "spike=1,spikefactor=-Inf",
		"spike=1,spikefactor=0.5", "spike=1,spikefactor=-2",
		// Negative durations, and an explicit heal at or before the loss.
		"stuckfor=-1s", "flap=-5s", "lose=NVML@5s-0s", "lose=NVML@5s-5s",
	} {
		if _, err := ParsePlan(bad, 1); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
}

// FuzzParsePlan: a -faults value is bytes an operator typed. A plan
// ParsePlan accepts renders (String) to a spec it accepts again, and that
// renders the same.
func FuzzParsePlan(f *testing.F) {
	for _, s := range []string{"", "seed=7,transient=0.1,spike=0.05,spikefactor=20,stuck=0.01,stuckfor=2s,flap=30s",
		"lose=NVML@30s,lose=SysMgmt API#2@5s-20s,lose=EMON#*@1m0s", "transient=NaN", "spike=1,spikefactor=0.5",
		"lose=NVML#0@1s", "lose=a=b@1s", "transient=-0.5", "stuck=1e-300,stuckfor=1ns", " , lose= x @0s-1h "} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		plan, err := ParsePlan(spec, 1)
		if err != nil {
			return
		}
		again, err := ParsePlan(plan.String(), 1)
		if err != nil || again.String() != plan.String() {
			t.Fatalf("%q: renders %q, which parses (%v) and renders %q", spec, plan.String(), err, again.String())
		}
	})
}

// pollTrace runs n polls at interval and returns a replay signature:
// error identities and reading values per poll.
func pollTrace(j *Injector, n int, interval time.Duration) string {
	var out string
	var buf []core.Reading
	var err error
	for i := 0; i < n; i++ {
		now := time.Duration(i) * interval
		buf, err = j.CollectInto(buf, now)
		switch {
		case errors.Is(err, ErrTransient):
			out += "T"
		case errors.Is(err, ErrFlapping):
			out += "F"
		case errors.Is(err, ErrDeviceLost):
			out += "L"
		case err != nil:
			out += "?"
		default:
			out += fmt.Sprintf("(%v@%v)", buf[0].Value, j.Cost())
		}
	}
	return out
}

func TestInjectorDeterministicReplay(t *testing.T) {
	plan := Plan{Seed: 9, Transient: 0.2, Spike: 0.1, Stuck: 0.05, StuckFor: 500 * time.Millisecond}
	a := pollTrace(Wrap(newFake(), plan, "NVML/NVML#0", 0), 500, 100*time.Millisecond)
	b := pollTrace(Wrap(newFake(), plan, "NVML/NVML#0", 0), 500, 100*time.Millisecond)
	if a != b {
		t.Fatal("same seed+label replayed differently")
	}
	c := pollTrace(Wrap(newFake(), plan, "NVML/NVML#1", 1), 500, 100*time.Millisecond)
	if a == c {
		t.Fatal("different labels drew identical fault sequences")
	}
}

func TestInjectorTransientRate(t *testing.T) {
	plan := Plan{Seed: 3, Transient: 0.25}
	j := Wrap(newFake(), plan, "x", 0)
	var buf []core.Reading
	for i := 0; i < 4000; i++ {
		buf, _ = j.CollectInto(buf, time.Duration(i)*time.Millisecond)
	}
	cnt := j.Counters()
	rate := float64(cnt.Transients) / float64(cnt.Polls)
	if rate < 0.2 || rate > 0.3 {
		t.Fatalf("transient rate %v far from 0.25", rate)
	}
}

func TestInjectorLossWindows(t *testing.T) {
	plan := Plan{Seed: 1, Lose: []Loss{
		{Method: "NVML", Instance: 0, At: time.Second},
		{Method: "NVML", Instance: 2, At: 2 * time.Second, Until: 3 * time.Second},
	}}
	j0 := Wrap(newFake(), plan, "a", 0)
	if _, err := j0.CollectInto(nil, 500*time.Millisecond); err != nil {
		t.Fatalf("before loss: %v", err)
	}
	if _, err := j0.CollectInto(nil, time.Second); !errors.Is(err, ErrDeviceLost) {
		t.Fatalf("at loss point: %v", err)
	}
	if _, err := j0.CollectInto(nil, time.Hour); !errors.Is(err, ErrDeviceLost) {
		t.Fatalf("permanent loss healed: %v", err)
	}
	// instance 1 is untouched by either loss
	j1 := Wrap(newFake(), plan, "b", 1)
	if _, err := j1.CollectInto(nil, time.Hour); err != nil {
		t.Fatalf("unlisted instance lost: %v", err)
	}
	// instance 2 heals at Until
	j2 := Wrap(newFake(), plan, "c", 2)
	if _, err := j2.CollectInto(nil, 2500*time.Millisecond); !errors.Is(err, ErrDeviceLost) {
		t.Fatal("instance 2 not lost inside window")
	}
	if _, err := j2.CollectInto(nil, 3*time.Second); err != nil {
		t.Fatalf("instance 2 still lost after Until: %v", err)
	}
}

func TestInjectorFlap(t *testing.T) {
	plan := Plan{Seed: 1, Flap: time.Second}
	j := Wrap(newFake(), plan, "a", 0)
	if _, err := j.CollectInto(nil, 500*time.Millisecond); err != nil {
		t.Fatalf("up window errored: %v", err)
	}
	if _, err := j.CollectInto(nil, 1500*time.Millisecond); !errors.Is(err, ErrFlapping) {
		t.Fatal("down window did not flap")
	}
	if _, err := j.CollectInto(nil, 2500*time.Millisecond); err != nil {
		t.Fatalf("second up window errored: %v", err)
	}
}

func TestInjectorStuckServesStaleCache(t *testing.T) {
	plan := Plan{Seed: 1, Stuck: 1.0, StuckFor: time.Second}
	fake := newFake()
	j := Wrap(fake, plan, "a", 0)
	first, err := j.CollectInto(nil, 0)
	if err != nil {
		t.Fatalf("first poll: %v", err)
	}
	want := first[0]
	// Every subsequent poll inside the window must serve the cached reading
	// with its original timestamp, without touching the backend.
	backendPolls := fake.polls
	got, err := j.CollectInto(nil, 500*time.Millisecond)
	if err != nil {
		t.Fatalf("stuck poll: %v", err)
	}
	if got[0] != want {
		t.Fatalf("stuck poll served fresh data: %+v != %+v", got[0], want)
	}
	if fake.polls != backendPolls {
		t.Fatal("stuck poll reached the backend")
	}
	if j.Counters().StuckPolls == 0 {
		t.Fatal("stuck polls not counted")
	}
	// Past the window the backend answers again (and immediately re-sticks,
	// since Stuck=1, but the reading itself is fresh).
	got, err = j.CollectInto(nil, 1200*time.Millisecond)
	if err != nil {
		t.Fatalf("post-window poll: %v", err)
	}
	if got[0] == want {
		t.Fatal("post-window poll still served the stale reading")
	}
}

func TestInjectorSpikeCost(t *testing.T) {
	plan := Plan{Seed: 5, Spike: 1.0, SpikeFactor: 20}
	fake := newFake()
	j := Wrap(fake, plan, "a", 0)
	if _, err := j.CollectInto(nil, 0); err != nil {
		t.Fatalf("poll: %v", err)
	}
	if want := 20 * fake.cost; j.Cost() != want {
		t.Fatalf("spiked cost %v, want %v", j.Cost(), want)
	}
	if j.Counters().Spikes != 1 {
		t.Fatalf("spikes = %d, want 1", j.Counters().Spikes)
	}

	// A finite factor ParsePlan accepts may still overflow a Duration:
	// the cost saturates instead of wrapping negative.
	plan, err := ParsePlan("spike=1,spikefactor=1e300", 5)
	if err != nil {
		t.Fatal(err)
	}
	j = Wrap(newFake(), plan, "a", 0)
	if _, err := j.CollectInto(nil, 0); err != nil {
		t.Fatalf("poll: %v", err)
	}
	if j.Cost() != math.MaxInt64 {
		t.Fatalf("spiked cost at factor 1e300 = %v, want the largest Duration", j.Cost())
	}
}

func TestDecorate(t *testing.T) {
	reg := core.NewRegistry()
	key := core.BackendKey{Platform: core.NVML, Method: "NVML"}
	reg.Register(key, func(target any) (core.Collector, error) {
		return newFake(), nil
	})

	if got := Decorate(reg, Plan{Seed: 1}); got != reg {
		t.Fatal("inert plan must return base registry unchanged")
	}

	plan := Plan{Seed: 1, Lose: []Loss{{Method: "NVML", Instance: 1, At: time.Second}}}
	dec := Decorate(reg, plan)
	var cols []*Injector
	for i := 0; i < 3; i++ {
		col, err := dec.Build(key, nil)
		if err != nil {
			t.Fatalf("build %d: %v", i, err)
		}
		inj, ok := col.(*Injector)
		if !ok {
			t.Fatalf("build %d returned %T, want *Injector", i, col)
		}
		if inj.Method() != "NVML" || inj.Platform() != core.NVML {
			t.Fatalf("injector does not mirror wrapped collector: %s/%s", inj.Platform(), inj.Method())
		}
		cols = append(cols, inj)
	}
	// Only the second build (instance 1) is scheduled for loss.
	for i, inj := range cols {
		_, err := inj.CollectInto(nil, 2*time.Second)
		if lost := errors.Is(err, ErrDeviceLost); lost != (i == 1) {
			t.Fatalf("instance %d lost=%v, want %v (err=%v)", i, lost, i == 1, err)
		}
	}
}
