// Package simclock provides a deterministic discrete-event virtual clock.
//
// Every component in the simulation — sensor update loops, environmental
// database pollers, MonEQ polling timers, workload phase transitions — is
// driven by a Clock rather than the operating system's wall clock. This
// makes hours of simulated sampling replayable in milliseconds and makes
// every experiment byte-for-byte reproducible.
//
// Time is expressed as a time.Duration offset from the simulation epoch
// (t = 0). Events scheduled for the same instant fire in the order they were
// scheduled, so runs are deterministic regardless of map iteration order or
// goroutine interleaving in the caller.
//
// A simulation is not limited to one clock: a Group is a set of independent
// clock domains advanced in lock-step epochs with barrier synchronization,
// which is how the cluster layer steps thousands of per-node domains across
// all host cores without giving up determinism. Consumers should accept the
// core.Clock interface (which *Clock satisfies) rather than the concrete
// type, so a component never cares whether it is bound to the lone global
// clock of a small experiment or to one domain of a sharded cluster.
package simclock

import (
	"container/heap"
	"fmt"
	"sync"
	"time"
)

// Callback is invoked when a timer fires. now is the simulated time at which
// the event fires (not the time Advance was called with). Callbacks run on
// the goroutine that advances the clock; they may schedule further events but
// must not call Advance themselves.
//
// Callback is an alias (not a defined type) so that methods taking one match
// the core.Clock interface exactly.
type Callback = func(now time.Duration)

// TimerHandle is the cancellation view of a scheduled event that the
// scheduling methods return. It is an alias for the anonymous interface so
// it is identical to core.Timer without simclock importing core.
type TimerHandle = interface {
	Stop() bool
}

// event is a scheduled callback in the clock's priority queue.
type event struct {
	at     time.Duration
	seq    uint64 // tiebreaker: FIFO among events at the same instant
	fn     Callback
	period time.Duration // > 0 for periodic timers
	timer  *Timer        // back-pointer so Stop can invalidate
	index  int           // heap index, maintained by eventHeap
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// Clock is a deterministic virtual clock. The zero value is not usable; call
// New. A Clock is safe for concurrent use, but callbacks always execute
// sequentially on the advancing goroutine.
type Clock struct {
	mu        sync.Mutex
	now       time.Duration
	seq       uint64
	events    eventHeap
	advancing bool
}

// New returns a Clock positioned at the simulation epoch (t = 0).
func New() *Clock {
	c := &Clock{}
	heap.Init(&c.events)
	return c
}

// Now reports the current simulated time as an offset from the epoch.
func (c *Clock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Timer is a handle to a scheduled event. Stop cancels it.
type Timer struct {
	clock   *Clock
	ev      *event
	stopped bool
}

// Stop cancels the timer. It reports whether the call prevented a future
// firing. Stopping an already-fired one-shot timer or an already-stopped
// timer returns false. Stop may be called from within a callback.
func (t *Timer) Stop() bool {
	if t == nil {
		return false
	}
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	if t.stopped || t.ev == nil {
		return false
	}
	t.stopped = true
	if t.ev.index >= 0 {
		heap.Remove(&t.clock.events, t.ev.index)
	}
	t.ev = nil
	return true
}

// schedule enqueues fn at absolute time at with the given period (0 for
// one-shot). Caller must hold c.mu.
func (c *Clock) schedule(at time.Duration, period time.Duration, fn Callback) *Timer {
	c.seq++
	ev := &event{at: at, seq: c.seq, fn: fn, period: period}
	t := &Timer{clock: c, ev: ev}
	ev.timer = t
	heap.Push(&c.events, ev)
	return t
}

// AfterFunc schedules fn to run once, d after the current simulated time.
// A non-positive d fires at the current instant on the next Advance.
func (c *Clock) AfterFunc(d time.Duration, fn Callback) TimerHandle {
	if fn == nil {
		panic("simclock: AfterFunc with nil callback")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if d < 0 {
		d = 0
	}
	return c.schedule(c.now+d, 0, fn)
}

// At schedules fn to run once at the absolute simulated time at. Times in
// the past fire on the next Advance.
func (c *Clock) At(at time.Duration, fn Callback) TimerHandle {
	if fn == nil {
		panic("simclock: At with nil callback")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if at < c.now {
		at = c.now
	}
	return c.schedule(at, 0, fn)
}

// Every schedules fn to run periodically, first at now+period and then each
// period thereafter. period must be positive.
func (c *Clock) Every(period time.Duration, fn Callback) TimerHandle {
	if period <= 0 {
		panic(fmt.Sprintf("simclock: Every with non-positive period %v", period))
	}
	if fn == nil {
		panic("simclock: Every with nil callback")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.schedule(c.now+period, period, fn)
}

// EveryFrom schedules fn to fire at start and then every period thereafter.
// If start is in the past it is clamped to the current instant.
func (c *Clock) EveryFrom(start, period time.Duration, fn Callback) TimerHandle {
	if period <= 0 {
		panic(fmt.Sprintf("simclock: EveryFrom with non-positive period %v", period))
	}
	if fn == nil {
		panic("simclock: EveryFrom with nil callback")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if start < c.now {
		start = c.now
	}
	return c.schedule(start, period, fn)
}

// Advance moves simulated time forward by d, firing every due event in
// timestamp order. It panics if called re-entrantly from a callback.
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("simclock: Advance by negative duration %v", d))
	}
	c.AdvanceTo(c.Now() + d)
}

// AdvanceTo moves simulated time forward to the absolute time target,
// firing every due event in timestamp order. Moving to a time at or before
// the current instant still fires events scheduled for exactly now.
func (c *Clock) AdvanceTo(target time.Duration) {
	c.mu.Lock()
	if c.advancing {
		c.mu.Unlock()
		panic("simclock: re-entrant Advance from a timer callback")
	}
	c.advancing = true
	if target < c.now {
		target = c.now
	}
	for len(c.events) > 0 && c.events[0].at <= target {
		ev := heap.Pop(&c.events).(*event)
		c.now = ev.at
		if ev.period > 0 && ev.timer != nil && !ev.timer.stopped {
			// Reschedule before running so the callback can Stop it.
			ev.at += ev.period
			c.seq++
			ev.seq = c.seq
			heap.Push(&c.events, ev)
		} else if ev.timer != nil {
			ev.timer.ev = nil
		}
		fn, now := ev.fn, c.now
		c.mu.Unlock()
		fn(now)
		c.mu.Lock()
	}
	c.now = target
	c.advancing = false
	c.mu.Unlock()
}
