// Package resilience is the policy layer between MonEQ and the vendor
// collection mechanisms: per-poll deadlines, capped exponential backoff
// retries, three-state circuit breakers, and ordered fallback chains that
// mirror the paper's real alternatives (Xeon Phi SysMgmt API → MICRAS
// daemon pseudo-file, the one chain a cluster node's job folds).
//
// Every unit of waiting — a retry backoff, a repeated query — is charged
// as simulated collection cost, so the overhead comparison that is the
// paper's core result still holds when the mechanisms misbehave: a
// mechanism that fails and retries is measurably more expensive than one
// that answers first try.
package resilience

import (
	"fmt"
	"sync"
	"time"

	"envmon/internal/core"
)

// Policy configures retry, deadline, and breaker behavior for one chain.
// The zero value selects usable defaults.
type Policy struct {
	// MaxAttempts is the per-source attempt budget per poll; non-positive
	// selects 3.
	MaxAttempts int
	// Backoff is the simulated wait before the first retry; non-positive
	// selects 10 ms. It doubles per retry.
	Backoff time.Duration
	// BackoffCap bounds the doubled backoff; non-positive selects 1 s.
	BackoffCap time.Duration
	// Deadline bounds the total simulated time one poll may spend across
	// attempts, backoffs, and fallbacks; non-positive means unbounded.
	Deadline time.Duration
	// FailureThreshold is the breaker's consecutive-exhausted-poll trip
	// count; non-positive selects 5.
	FailureThreshold int
	// Cooldown is how long an open breaker short-circuits before letting a
	// half-open probe through; non-positive selects 5 s.
	Cooldown time.Duration
	// ProbeSuccesses is how many half-open probes must succeed to re-close
	// the breaker; non-positive selects 1.
	ProbeSuccesses int
	// Hooks observes the chain's resilience events (all optional).
	Hooks Hooks
}

// Hooks is the observation surface of a chain: callbacks fired as polls,
// retries, and breaker transitions happen, so an instrumentation layer
// can count them without the chain importing it. All fields are optional;
// a zero Hooks observes nothing and costs nothing (in particular, wall
// clocks are only read when Poll is set).
//
// Callbacks run with the chain's lock held, on the polling goroutine:
// they must be fast, must not block, and must not call back into the
// Collector.
type Hooks struct {
	// Retry fires once per backoff retry, with the retried source's method.
	Retry func(method string)
	// Transition fires when a source's breaker changes state — trips
	// (closed/half-open → open), cooldown probes (open → half-open), and
	// recoveries (half-open → closed).
	Transition func(method string, from, to State)
	// Poll fires at the end of every poll: served is the answering
	// source's method (empty when the poll was dropped), wall is host
	// time spent, sim the simulated spend, fellBack whether a
	// non-primary source answered.
	Poll func(served string, wall, sim time.Duration, fellBack bool)
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.Backoff <= 0 {
		p.Backoff = defaultBackoff
	}
	if p.BackoffCap <= 0 {
		p.BackoffCap = defaultBackoffCap
	}
	return p
}

// Stats counts a chain's degraded-mode activity.
type Stats struct {
	// Polls is the number of CollectInto calls.
	Polls int
	// Retries is the number of backoff retries across all sources.
	Retries int
	// Fallbacks is the number of polls answered by a non-primary source.
	Fallbacks int
	// Dropped is the number of polls no source could answer.
	Dropped int
}

// SourceStatus is one chain member's breaker position, for /healthz.
type SourceStatus struct {
	Method string `json:"method"`
	State  string `json:"state"`
	Trips  int    `json:"trips"`
}

// source pairs a chain member with its breaker.
type source struct {
	col core.Collector
	brk *Breaker
}

// Collector wraps a primary collector and ordered fallbacks with the
// policy. It embeds the primary, so it reports the primary's
// Platform/Method/MinInterval and series identity is stable
// no matter which source answered — degraded operation shows up in Stats
// and breaker state, not as a renamed series.
//
// A mutex guards all state: polls run on the chain's clock domain while
// envmond's /healthz handler reads Status from an HTTP goroutine.
type Collector struct {
	core.Collector
	mu      sync.Mutex
	policy  Policy
	sources []source
	stats   Stats
	lastNow time.Duration
	// lastCost is the most recent poll's total simulated spend — queries
	// plus backoffs across every source tried — surfaced via Cost() so the
	// sampler's overhead accounting charges resilience where it belongs.
	lastCost time.Duration
}

// New builds a chain: primary first, fallbacks in preference order.
func New(policy Policy, primary core.Collector, fallbacks ...core.Collector) *Collector {
	cols := append([]core.Collector{primary}, fallbacks...)
	c := &Collector{Collector: primary, policy: policy.withDefaults()}
	for _, col := range cols {
		c.sources = append(c.sources, source{
			col: col,
			brk: NewBreaker(policy.FailureThreshold, policy.Cooldown, policy.ProbeSuccesses),
		})
	}
	c.lastCost = primary.Cost()
	return c
}

// Cost implements core.Collector: the most recent poll's total simulated
// spend, including retries, backoff waits, and fallback queries.
func (c *Collector) Cost() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastCost
}

// Stats reports the chain's degraded-mode counters.
func (c *Collector) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ResilienceCounters reports (retries, breaker trips, fallback polls,
// dropped polls). It is the structural hook moneq's sampler uses to fold
// degraded-mode counters into report Meta without importing this package.
func (c *Collector) ResilienceCounters() (retries, trips, fallbacks, dropped int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.sources {
		trips += s.brk.Trips()
	}
	return c.stats.Retries, trips, c.stats.Fallbacks, c.stats.Dropped
}

// Status reports each source's breaker position as of the last poll time.
func (c *Collector) Status() []SourceStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]SourceStatus, len(c.sources))
	for i, s := range c.sources {
		out[i] = SourceStatus{
			Method: s.col.Method(),
			State:  s.brk.State(c.lastNow).String(),
			Trips:  s.brk.Trips(),
		}
	}
	return out
}

// CollectInto implements core.Collector: try each source in order —
// skipping those whose breaker is open — with per-source retry budgets and
// capped exponential backoff, within the poll's simulated deadline.
func (c *Collector) CollectInto(buf []core.Reading, now time.Duration) ([]core.Reading, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Polls++
	c.lastNow = now
	c.lastCost = 0

	h := &c.policy.Hooks
	var start time.Time
	if h.Poll != nil {
		start = time.Now()
	}
	var firstErr error
	deadlineOK := func(d time.Duration) bool {
		return c.policy.Deadline <= 0 || c.lastCost+d <= c.policy.Deadline
	}
	for si := range c.sources {
		src := &c.sources[si]
		pre := src.brk.state
		allowed := src.brk.Allow(now)
		c.noteTransition(src, pre)
		if !allowed {
			continue // open breaker: skip without spending any time
		}
		backoff := Backoff{Initial: c.policy.Backoff, Cap: c.policy.BackoffCap}
		ok := false
		for attempt := 1; attempt <= c.policy.MaxAttempts; attempt++ {
			if !deadlineOK(src.col.Cost()) {
				break
			}
			readings, err := src.col.CollectInto(buf, now)
			c.lastCost += src.col.Cost()
			if err == nil {
				ok = true
				pre = src.brk.state
				src.brk.Record(now, true)
				c.noteTransition(src, pre)
				if si > 0 {
					c.stats.Fallbacks++
				}
				if h.Poll != nil {
					h.Poll(src.col.Method(), time.Since(start), c.lastCost, si > 0)
				}
				return readings, nil
			}
			buf = readings[:0]
			if firstErr == nil {
				firstErr = err
			}
			wait := backoff.Next()
			if attempt == c.policy.MaxAttempts || !deadlineOK(wait) {
				break
			}
			c.lastCost += wait // the retry wait is simulated spend too
			c.stats.Retries++
			if h.Retry != nil {
				h.Retry(src.col.Method())
			}
		}
		if !ok {
			pre = src.brk.state
			src.brk.Record(now, false)
			c.noteTransition(src, pre)
		}
	}
	c.stats.Dropped++
	if h.Poll != nil {
		h.Poll("", time.Since(start), c.lastCost, false)
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("resilience: %s: every source skipped (breakers open)", c.Method())
	}
	return buf[:0], firstErr
}

// noteTransition fires the Transition hook if the source's breaker left
// the pre state during the preceding Allow or Record call. Caller holds
// c.mu.
func (c *Collector) noteTransition(src *source, pre State) {
	if h := c.policy.Hooks.Transition; h != nil && src.brk.state != pre {
		h(src.col.Method(), pre, src.brk.state)
	}
}
