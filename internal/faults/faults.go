// Package faults is the deterministic fault injector of the robustness
// harness: it wraps any core.Collector with a configurable fault plan —
// transient read errors, latency spikes, stuck/stale readings, link
// flapping, and permanent device loss — so the resilience layer and the
// chaos tests can exercise every failure mode the paper's mechanisms show
// in practice (EMON data arriving late or not at all, NVML reporting
// "GPU is lost", the Phi SCIF daemon crashing, the environmental database
// refusing inserts at capacity).
//
// Injection is simrand-seeded and fully deterministic: each injector draws
// from its own stream split off the plan seed by a stable label, and draws
// happen only on Collect, whose per-collector call sequence is a pure
// function of the simulated clock. Two runs with the same seed — at any
// clock-domain shard count or worker count — replay byte-identical faults.
package faults

import (
	"errors"
	"fmt"
	"math"
	"time"

	"envmon/internal/core"
	"envmon/internal/simrand"
)

// Injected fault errors. Sentinels, so policy layers can classify without
// string matching.
var (
	// ErrTransient is an injected one-shot read failure (a dropped NVML
	// sample, a flaky pseudo-file read). Retrying is expected to succeed.
	ErrTransient = errors.New("faults: injected transient read error")
	// ErrFlapping is returned during the down half of a flap window (a
	// link or daemon that comes and goes on a schedule).
	ErrFlapping = errors.New("faults: link down (flap window)")
	// ErrDeviceLost is returned after a permanent loss point — the
	// simulation's NVML_ERROR_GPU_IS_LOST / dead SCIF daemon / envdb
	// outage. Retrying within the loss window never succeeds.
	ErrDeviceLost = errors.New("faults: device lost")
)

// Loss schedules a permanent device loss for collectors of one method.
type Loss struct {
	// Method matches core.Collector.Method() (e.g. "NVML", "SysMgmt API").
	Method string
	// Instance selects which wrapped collector of that method is lost, in
	// decoration/build order; negative loses every instance.
	Instance int
	// At is the simulated time the device disappears.
	At time.Duration
	// Until is the simulated time the device comes back; zero means never
	// (a true permanent loss).
	Until time.Duration
}

// matches reports whether the loss applies to an injector wrapping the
// given method at the given build instance.
func (l Loss) matches(method string, instance int) bool {
	return l.Method == method && (l.Instance < 0 || l.Instance == instance)
}

// Plan configures the fault behaviors of every injector derived from it.
// The zero value injects nothing.
type Plan struct {
	// Seed roots the deterministic draw streams.
	Seed uint64
	// Transient is the per-poll probability of a one-shot read error.
	Transient float64
	// Spike is the per-poll probability of a latency spike: the poll
	// succeeds but costs SpikeFactor times the mechanism's base cost in
	// simulated time, so overhead accounting still holds.
	Spike float64
	// SpikeFactor multiplies the base cost on a spiked poll; values below
	// 1 select the default of 10.
	SpikeFactor float64
	// Stuck is the per-poll probability of entering a stuck window, during
	// which the collector serves its previous readings unchanged (stale
	// values with their original timestamps — the sensor stopped updating
	// but the access path still answers).
	Stuck float64
	// StuckFor is the stuck-window length; non-positive selects 1 s.
	StuckFor time.Duration
	// Flap, when positive, alternates the device between up and down
	// windows of this length (down during odd windows).
	Flap time.Duration
	// Lose schedules permanent device losses.
	Lose []Loss
}

// Enabled reports whether the plan injects anything at all.
func (p Plan) Enabled() bool {
	return p.Transient > 0 || p.Spike > 0 || p.Stuck > 0 || p.Flap > 0 || len(p.Lose) > 0
}

// Validate checks probabilities, the spike factor, durations and loss
// windows. Each comparison is written so that NaN fails it.
func (p Plan) Validate() error {
	for name, prob := range map[string]float64{
		"transient": p.Transient, "spike": p.Spike, "stuck": p.Stuck,
	} {
		if !(prob >= 0 && prob <= 1) {
			return fmt.Errorf("faults: %s probability %v outside [0, 1]", name, prob)
		}
	}
	if f := p.SpikeFactor; f != 0 && !(f >= 1 && f <= math.MaxFloat64) {
		return fmt.Errorf("faults: spike factor %v must be finite and at least 1 (or 0 for the default)", f)
	}
	for name, d := range map[string]time.Duration{"stuckfor": p.StuckFor, "flap": p.Flap} {
		if d < 0 {
			return fmt.Errorf("faults: %s %v is negative", name, d)
		}
	}
	for _, l := range p.Lose {
		if l.Method == "" {
			return fmt.Errorf("faults: loss with empty method")
		}
		if l.Until != 0 && l.Until <= l.At {
			return fmt.Errorf("faults: loss of %q heals at %v, before loss at %v", l.Method, l.Until, l.At)
		}
	}
	return nil
}

// Counters reports what an injector has done so far, for test assertions
// and degraded-mode accounting.
type Counters struct {
	Polls      int
	Transients int
	Spikes     int
	StuckPolls int
	FlapPolls  int
	LostPolls  int
}

// Injector wraps a collector with a fault plan. It implements
// core.Collector and is driven from the wrapped
// collector's clock domain, so it needs no locking.
type Injector struct {
	core.Collector
	plan     Plan
	rng      *simrand.Source
	instance int

	stuckUntil time.Duration
	cache      []core.Reading // last good readings, served while stuck
	lastCost   time.Duration
	counters   Counters
}

// Wrap returns an injector around col. label names the instance's draw
// stream (stable across runs — e.g. "NVML/NVML#3"); instance is the
// build index used by Loss matching.
func Wrap(col core.Collector, plan Plan, label string, instance int) *Injector {
	return &Injector{
		Collector: col,
		plan:      plan,
		rng:       simrand.New(plan.Seed).Split(label),
		instance:  instance,
		lastCost:  col.Cost(),
	}
}

// Counters reports the injection counts so far.
func (j *Injector) Counters() Counters { return j.counters }

// Cost implements core.Collector: the wrapped mechanism's cost for the
// most recent poll, inflated on a spiked poll. Failed polls still cost the
// base query time — a timeout is not free.
func (j *Injector) Cost() time.Duration { return j.lastCost }

// lost reports whether a loss window covers now for this instance.
func (j *Injector) lost(now time.Duration) bool {
	for _, l := range j.plan.Lose {
		if l.matches(j.Method(), j.instance) && now >= l.At && (l.Until == 0 || now < l.Until) {
			return true
		}
	}
	return false
}

// CollectInto implements core.Collector. Fault checks run in a fixed
// order — loss, flap, stuck, transient, spike — so the draw stream is
// consumed identically on every replay.
func (j *Injector) CollectInto(buf []core.Reading, now time.Duration) ([]core.Reading, error) {
	j.counters.Polls++
	j.lastCost = j.Collector.Cost()
	if j.lost(now) {
		j.counters.LostPolls++
		return buf[:0], fmt.Errorf("faults: %s: %w", j.Method(), ErrDeviceLost)
	}
	if p := j.plan.Flap; p > 0 && (now/p)%2 == 1 {
		j.counters.FlapPolls++
		return buf[:0], fmt.Errorf("faults: %s: %w", j.Method(), ErrFlapping)
	}
	if now < j.stuckUntil && len(j.cache) > 0 {
		j.counters.StuckPolls++
		return append(buf[:0], j.cache...), nil
	}
	if j.rng.Bool(j.plan.Transient) {
		j.counters.Transients++
		return buf[:0], fmt.Errorf("faults: %s: %w", j.Method(), ErrTransient)
	}
	if j.rng.Bool(j.plan.Spike) {
		j.counters.Spikes++
		factor := j.plan.SpikeFactor
		if factor < 1 {
			factor = 10
		}
		// A cost past the largest Duration saturates rather than wrapping.
		if c := float64(j.Collector.Cost()) * factor; c < math.MaxInt64 {
			j.lastCost = time.Duration(c)
		} else {
			j.lastCost = math.MaxInt64
		}
	}
	if j.rng.Bool(j.plan.Stuck) {
		dur := j.plan.StuckFor
		if dur <= 0 {
			dur = time.Second
		}
		j.stuckUntil = now + dur
	}
	readings, err := j.Collector.CollectInto(buf, now)
	if err == nil {
		j.cache = append(j.cache[:0], readings...)
	}
	return readings, err
}
