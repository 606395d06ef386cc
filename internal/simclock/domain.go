package simclock

import (
	"fmt"
	"time"

	"envmon/internal/par"
)

// Group is a set of independent clock domains advanced in lock-step epochs.
//
// Each domain is an ordinary *Clock with its own event heap: events within
// a domain fire sequentially in timestamp-then-FIFO order, exactly as on a
// standalone clock. Across domains there is no event-level ordering — that
// is the contract that lets the group advance all domains concurrently on a
// worker pool. Work whose results must be observed in a global order (a
// cluster-wide series merge, an aggregation flush) belongs in the barrier
// callback of AdvanceEpochs, which runs on the calling goroutine while every
// domain is parked at the same epoch boundary.
//
// Determinism is preserved by construction: per-domain event order does not
// depend on scheduling, the barrier callback runs single-threaded, and the
// epoch schedule is a function of the arguments alone — so a simulation
// produces identical output whether it is stepped with 1 worker or N.
type Group struct {
	clocks []*Clock
}

// NewGroup returns a group of n independent clock domains, all positioned
// at the simulation epoch (t = 0).
func NewGroup(n int) *Group {
	if n <= 0 {
		panic(fmt.Sprintf("simclock: NewGroup with non-positive domain count %d", n))
	}
	g := &Group{clocks: make([]*Clock, n)}
	for i := range g.clocks {
		g.clocks[i] = New()
	}
	return g
}

// Len reports the number of domains.
func (g *Group) Len() int { return len(g.clocks) }

// Clock returns domain i's clock.
func (g *Group) Clock(i int) *Clock { return g.clocks[i] }

// Now reports the trailing edge of the group: the minimum current time
// across domains. After AdvanceTo or AdvanceEpochs returns, every domain
// sits at the same instant and Now is that instant.
func (g *Group) Now() time.Duration {
	min := g.clocks[0].Now()
	for _, c := range g.clocks[1:] {
		if n := c.Now(); n < min {
			min = n
		}
	}
	return min
}

// AdvanceTo moves every domain forward to the absolute time target — one
// epoch with a single trailing barrier. Domains advance concurrently on a
// pool of the given size (<= 0 selects one worker per host core; 1 is
// fully serial); AdvanceTo returns only when every domain has reached
// target.
func (g *Group) AdvanceTo(target time.Duration, workers int) {
	par.For(len(g.clocks), workers, func(i int) {
		g.clocks[i].AdvanceTo(target)
	})
}

// AdvanceEpochs moves every domain to target in lock-step epochs of the
// given size: all domains advance (concurrently) to the next epoch
// boundary, synchronize at a barrier, and atBarrier — if non-nil — runs on
// the calling goroutine with every domain parked at exactly that instant.
// This is where cross-domain work that needs a coherent global time belongs
// (merging per-domain series, flushing an aggregator). A non-positive epoch
// advances straight to target with a single trailing barrier.
func (g *Group) AdvanceEpochs(target, epoch time.Duration, workers int, atBarrier func(now time.Duration)) {
	start := g.Now()
	if target < start {
		target = start
	}
	if epoch <= 0 {
		epoch = target - start
	}
	if epoch <= 0 {
		// Zero-length window: still fire events due at exactly now.
		g.AdvanceTo(target, workers)
		if atBarrier != nil {
			atBarrier(target)
		}
		return
	}
	for t := start + epoch; ; t += epoch {
		if t > target {
			t = target
		}
		g.AdvanceTo(t, workers)
		if atBarrier != nil {
			atBarrier(t)
		}
		if t >= target {
			return
		}
	}
}
