package resilience

import (
	"errors"
	"testing"
	"time"

	"envmon/internal/core"
)

// flakyCollector fails according to a script: failAt[i] == true means the
// i-th CollectInto call errors.
type flakyCollector struct {
	method string
	cost   time.Duration
	calls  int
	fail   func(call int, now time.Duration) bool
}

var errFlaky = errors.New("flaky: scripted failure")

func (f *flakyCollector) Platform() core.Platform    { return core.NVML }
func (f *flakyCollector) Method() string             { return f.method }
func (f *flakyCollector) Cost() time.Duration        { return f.cost }
func (f *flakyCollector) MinInterval() time.Duration { return 100 * time.Millisecond }
func (f *flakyCollector) CollectInto(buf []core.Reading, now time.Duration) ([]core.Reading, error) {
	call := f.calls
	f.calls++
	if f.fail != nil && f.fail(call, now) {
		return buf[:0], errFlaky
	}
	return append(buf[:0], core.Reading{
		Cap:   core.Capability{Component: core.Total, Metric: core.Power},
		Value: 100, Unit: "W", Time: now,
	}), nil
}

func TestRetryRecoversTransient(t *testing.T) {
	// Fail the first attempt of every poll; the retry must succeed and the
	// backoff must be charged as cost.
	prim := &flakyCollector{method: "NVML", cost: time.Millisecond,
		fail: func(call int, _ time.Duration) bool { return call%2 == 0 }}
	c := New(Policy{MaxAttempts: 3, Backoff: 10 * time.Millisecond}, prim)
	readings, err := c.CollectInto(nil, 0)
	if err != nil {
		t.Fatalf("poll failed despite retry budget: %v", err)
	}
	if len(readings) != 1 {
		t.Fatalf("got %d readings", len(readings))
	}
	// Two queries (1 ms each) plus one 10 ms backoff.
	if want := 12 * time.Millisecond; c.Cost() != want {
		t.Fatalf("cost %v, want %v", c.Cost(), want)
	}
	s := c.Stats()
	if s.Retries != 1 || s.Dropped != 0 || s.Fallbacks != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestBackoffDoublesAndCaps(t *testing.T) {
	prim := &flakyCollector{method: "NVML", cost: time.Millisecond,
		fail: func(int, time.Duration) bool { return true }}
	c := New(Policy{MaxAttempts: 5, Backoff: 10 * time.Millisecond, BackoffCap: 25 * time.Millisecond}, prim)
	if _, err := c.CollectInto(nil, 0); err == nil {
		t.Fatal("want error from always-failing source")
	}
	// 5 queries (5 ms) + backoffs 10+20+25+25 = 85 ms.
	if want := 85 * time.Millisecond; c.Cost() != want {
		t.Fatalf("cost %v, want %v", c.Cost(), want)
	}
	if s := c.Stats(); s.Retries != 4 || s.Dropped != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestDeadlineBoundsPollSpend(t *testing.T) {
	prim := &flakyCollector{method: "NVML", cost: 10 * time.Millisecond,
		fail: func(int, time.Duration) bool { return true }}
	c := New(Policy{MaxAttempts: 10, Backoff: 10 * time.Millisecond, Deadline: 35 * time.Millisecond}, prim)
	if _, err := c.CollectInto(nil, 0); err == nil {
		t.Fatal("want error")
	}
	// Query(10) + backoff(10) + query(10) = 30; a further backoff or query
	// would cross 35 ms, so the poll stops there.
	if c.Cost() > 35*time.Millisecond {
		t.Fatalf("cost %v exceeded deadline", c.Cost())
	}
	if prim.calls != 2 {
		t.Fatalf("backend queried %d times, want 2", prim.calls)
	}
}

func TestBreakerTripsOpensAndRecloses(t *testing.T) {
	downUntil := 10 * time.Second
	prim := &flakyCollector{method: "NVML", cost: time.Millisecond,
		fail: func(_ int, now time.Duration) bool { return now < downUntil }}
	c := New(Policy{
		MaxAttempts: 1, FailureThreshold: 3, Cooldown: 2 * time.Second, ProbeSuccesses: 1,
	}, prim)

	step := 100 * time.Millisecond
	now := time.Duration(0)
	// Three failed polls trip the breaker.
	for i := 0; i < 3; i++ {
		if _, err := c.CollectInto(nil, now); err == nil {
			t.Fatal("want failure")
		}
		now += step
	}
	if st := c.Status()[0]; st.State != "open" || st.Trips != 1 {
		t.Fatalf("after threshold: %+v", st)
	}

	// While open (within cooldown) polls short-circuit: no backend call, no
	// cost, errors still reported.
	calls := prim.calls
	if _, err := c.CollectInto(nil, now); err == nil {
		t.Fatal("open breaker must still fail the poll")
	}
	if prim.calls != calls {
		t.Fatal("open breaker let a call through")
	}
	if c.Cost() != 0 {
		t.Fatalf("open-breaker poll cost %v, want 0", c.Cost())
	}

	// After the cooldown, a half-open probe goes through; the fault is
	// still active so the breaker re-opens.
	now = 3 * time.Second
	if _, err := c.CollectInto(nil, now); err == nil {
		t.Fatal("probe should have failed")
	}
	if st := c.Status()[0]; st.State != "open" || st.Trips != 2 {
		t.Fatalf("after failed probe: %+v", st)
	}

	// Once the fault clears, the next probe succeeds and the breaker
	// re-closes.
	now = downUntil + 3*time.Second
	if _, err := c.CollectInto(nil, now); err != nil {
		t.Fatalf("probe after fault cleared: %v", err)
	}
	if st := c.Status()[0]; st.State != "closed" {
		t.Fatalf("after successful probe: %+v", st)
	}
	if _, err := c.CollectInto(nil, now+step); err != nil {
		t.Fatalf("closed breaker poll: %v", err)
	}
}

func TestFallbackChainKeepsPrimaryIdentity(t *testing.T) {
	prim := &flakyCollector{method: "SysMgmt API", cost: 14200 * time.Microsecond,
		fail: func(int, time.Duration) bool { return true }}
	fb := &flakyCollector{method: "MICRAS daemon", cost: 40 * time.Microsecond}
	c := New(Policy{MaxAttempts: 2, Backoff: time.Millisecond}, prim, fb)

	if got, want := c.Method(), "SysMgmt API"; got != want {
		t.Fatalf("chain method %q, want primary %q", got, want)
	}
	readings, err := c.CollectInto(nil, 0)
	if err != nil {
		t.Fatalf("fallback did not answer: %v", err)
	}
	if len(readings) != 1 {
		t.Fatalf("got %d readings", len(readings))
	}
	if fb.calls != 1 {
		t.Fatalf("fallback called %d times, want 1", fb.calls)
	}
	retries, _, fallbacks, dropped := c.ResilienceCounters()
	if retries != 1 || fallbacks != 1 || dropped != 0 {
		t.Fatalf("counters retries=%d fallbacks=%d dropped=%d", retries, fallbacks, dropped)
	}
	// Cost includes the failed primary attempts, the backoff, and the
	// fallback query.
	want := 2*prim.cost + time.Millisecond + fb.cost
	if c.Cost() != want {
		t.Fatalf("cost %v, want %v", c.Cost(), want)
	}
}

func TestAllSourcesOpenReportsSkip(t *testing.T) {
	prim := &flakyCollector{method: "A", cost: time.Millisecond,
		fail: func(int, time.Duration) bool { return true }}
	fb := &flakyCollector{method: "B", cost: time.Millisecond,
		fail: func(int, time.Duration) bool { return true }}
	c := New(Policy{MaxAttempts: 1, FailureThreshold: 1, Cooldown: time.Hour}, prim, fb)
	if _, err := c.CollectInto(nil, 0); !errors.Is(err, errFlaky) {
		t.Fatalf("first poll: %v", err)
	}
	_, err := c.CollectInto(nil, time.Second)
	if err == nil {
		t.Fatal("want skip error")
	}
	if errors.Is(err, errFlaky) {
		t.Fatalf("skip error should not be a source error: %v", err)
	}
	if _, trips, _, dropped := c.ResilienceCounters(); trips != 2 || dropped != 2 {
		t.Fatalf("trips=%d dropped=%d", trips, dropped)
	}
}

func TestBackoffValueSequence(t *testing.T) {
	b := Backoff{Initial: 10 * time.Millisecond, Cap: 25 * time.Millisecond}
	var got []time.Duration
	for i := 0; i < 4; i++ {
		got = append(got, b.Next())
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 25 * time.Millisecond, 25 * time.Millisecond}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("wait %d = %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
	b.Reset()
	if w := b.Next(); w != 10*time.Millisecond {
		t.Fatalf("after Reset, Next = %v, want 10ms", w)
	}

	// Zero value selects the chain defaults.
	var z Backoff
	if w := z.Next(); w != 10*time.Millisecond {
		t.Fatalf("zero-value Next = %v, want 10ms", w)
	}
	for i := 0; i < 10; i++ {
		if w := z.Next(); w > time.Second {
			t.Fatalf("zero-value wait %v exceeded the default cap", w)
		}
	}

	// An Initial above Cap is clamped rather than handed out.
	c := Backoff{Initial: time.Minute, Cap: time.Second}
	if w := c.Next(); w != time.Second {
		t.Fatalf("clamped Next = %v, want 1s", w)
	}
}

// hookRecorder captures every hook firing for assertion.
type hookRecorder struct {
	retries     []string
	transitions []string // "method:from>to"
	polls       []string // "served" ("" = dropped)
	fellBack    int
	walls       []time.Duration
}

func (r *hookRecorder) hooks() Hooks {
	return Hooks{
		Retry: func(method string) { r.retries = append(r.retries, method) },
		Transition: func(method string, from, to State) {
			r.transitions = append(r.transitions, method+":"+from.String()+">"+to.String())
		},
		Poll: func(served string, wall, sim time.Duration, fellBack bool) {
			r.polls = append(r.polls, served)
			r.walls = append(r.walls, wall)
			if fellBack {
				r.fellBack++
			}
		},
	}
}

func TestHooksFireOnRetryFallbackAndTransitions(t *testing.T) {
	// Primary always fails; fallback always answers. Threshold 2, so the
	// primary's breaker trips on the second poll.
	prim := &flakyCollector{method: "SysMgmt API", cost: time.Millisecond,
		fail: func(int, time.Duration) bool { return true }}
	fb := &flakyCollector{method: "MICRAS daemon", cost: 2 * time.Millisecond}
	rec := &hookRecorder{}
	c := New(Policy{
		MaxAttempts: 2, Backoff: 10 * time.Millisecond,
		FailureThreshold: 2, Cooldown: time.Minute,
		Hooks: rec.hooks(),
	}, prim, fb)

	for poll := 0; poll < 3; poll++ {
		if _, err := c.CollectInto(nil, time.Duration(poll)*time.Second); err != nil {
			t.Fatalf("poll %d: %v", poll, err)
		}
	}
	// Polls 0 and 1 retry the primary once each; poll 2 skips it (open).
	if len(rec.retries) != 2 || rec.retries[0] != "SysMgmt API" {
		t.Fatalf("retries = %v", rec.retries)
	}
	if len(rec.transitions) != 1 || rec.transitions[0] != "SysMgmt API:closed>open" {
		t.Fatalf("transitions = %v", rec.transitions)
	}
	if len(rec.polls) != 3 || rec.fellBack != 3 {
		t.Fatalf("polls = %v (fellBack %d)", rec.polls, rec.fellBack)
	}
	for _, served := range rec.polls {
		if served != "MICRAS daemon" {
			t.Fatalf("served = %v", rec.polls)
		}
	}
	for _, w := range rec.walls {
		if w <= 0 {
			t.Fatalf("non-positive wall time: %v", rec.walls)
		}
	}
}

func TestHooksObserveRecoveryTransitions(t *testing.T) {
	// Fail long enough to trip, then recover: the hook must see
	// closed>open, open>half-open, half-open>closed.
	prim := &flakyCollector{method: "EMON", cost: time.Millisecond,
		fail: func(call int, _ time.Duration) bool { return call < 2 }}
	rec := &hookRecorder{}
	c := New(Policy{
		MaxAttempts: 1, FailureThreshold: 2, Cooldown: 10 * time.Second,
		Hooks: rec.hooks(),
	}, prim)

	c.CollectInto(nil, 0)           // fail 1
	c.CollectInto(nil, time.Second) // fail 2 -> trips
	// Within cooldown: dropped, no transition.
	if _, err := c.CollectInto(nil, 2*time.Second); err == nil {
		t.Fatal("want drop while breaker open")
	}
	// Past cooldown: probe allowed (open>half-open), succeeds (half-open>closed).
	if _, err := c.CollectInto(nil, 20*time.Second); err != nil {
		t.Fatalf("probe failed: %v", err)
	}
	want := []string{"EMON:closed>open", "EMON:open>half-open", "EMON:half-open>closed"}
	if len(rec.transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", rec.transitions, want)
	}
	for i := range want {
		if rec.transitions[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", rec.transitions, want)
		}
	}
	// The dropped poll still fired Poll with an empty served method.
	if rec.polls[2] != "" {
		t.Fatalf("dropped poll served = %q", rec.polls[2])
	}
}
