// Package tau implements a TAU-style timer-based profiler with RAPL power
// collection — the third tool of the paper's Section III survey: "as of
// version 2.23, TAU also supports power profiling collection of RAPL
// through the MSR drivers. To the best of our knowledge this is the only
// system that TAU supports for power profiling."
//
// TAU's model differs from both MonEQ (interval polling of everything) and
// PAPI (event sets read on demand): instrumentation is *timer-scoped*.
// Code regions are bracketed by Start/Stop on named timers; the profiler
// attributes wall time and — through the RAPL MSR counters sampled at the
// brackets — energy to each region, inclusively and exclusively, honoring
// nesting. The output is a per-timer profile, TAU's `pprof`-style table.
//
// Faithful to the survey: the only power backend is RAPL via the MSR
// driver. That restriction is part of the point the paper makes.
package tau

import (
	"fmt"
	"sort"
	"time"

	"envmon/internal/msr"
	"envmon/internal/rapl"
)

// Profiler is a TAU-like instrumentation session over one socket's RAPL.
type Profiler struct {
	dev        *msr.Device
	energyUnit float64
	timers     map[string]*Timer
	stack      []*invocation
}

// Timer accumulates one named region's profile.
type Timer struct {
	Name       string
	Calls      int
	Inclusive  time.Duration // wall time including children
	Exclusive  time.Duration // wall time minus children
	InclusiveJ float64       // PKG energy including children
	ExclusiveJ float64       // PKG energy minus children
}

type invocation struct {
	timer  *Timer
	startT time.Duration
	startJ float64
	childT time.Duration
	childJ float64
}

// NewProfiler opens a profiler over an MSR device handle (TAU reads RAPL
// "through the MSR drivers" — it needs the same /dev/cpu access as any
// other MSR consumer).
func NewProfiler(dev *msr.Device) (*Profiler, error) {
	raw, err := dev.Read(msr.RAPLPowerUnit, 0)
	if err != nil {
		return nil, fmt.Errorf("tau: reading RAPL unit register: %w", err)
	}
	_, energyJ, _ := rapl.DecodeUnits(raw)
	return &Profiler{
		dev:        dev,
		energyUnit: energyJ,
		timers:     make(map[string]*Timer),
	}, nil
}

// readEnergy reads the PKG counter as joules at now. Wraparound between
// brackets is handled modularly, like every RAPL consumer must.
func (p *Profiler) readEnergy(now time.Duration) (float64, error) {
	raw, err := p.dev.Read(msr.PkgEnergyStatus, now)
	if err != nil {
		return 0, err
	}
	return float64(uint32(raw)) * p.energyUnit, nil
}

// energyDelta computes joules between two counter snapshots (modular over
// the 32-bit counter).
func (p *Profiler) energyDelta(startJ, endJ float64) float64 {
	if endJ >= startJ {
		return endJ - startJ
	}
	// one wrap
	return endJ + float64(rapl.CounterWrap)*p.energyUnit - startJ
}

// Start begins (or re-enters) the named timer at simulated time now.
// Timers nest: time and energy spent in an inner timer are excluded from
// the enclosing timer's exclusive figures.
func (p *Profiler) Start(name string, now time.Duration) error {
	t := p.timers[name]
	if t == nil {
		t = &Timer{Name: name}
		p.timers[name] = t
	}
	// Re-entrant starts of the timer already on top of the stack are a
	// common instrumentation bug; reject loudly like TAU's runtime does.
	for _, inv := range p.stack {
		if inv.timer == t {
			return fmt.Errorf("tau: timer %q is already running (recursive Start)", name)
		}
	}
	j, err := p.readEnergy(now)
	if err != nil {
		return fmt.Errorf("tau: %w", err)
	}
	p.stack = append(p.stack, &invocation{timer: t, startT: now, startJ: j})
	return nil
}

// Stop ends the named timer, which must be the innermost running timer
// (TAU enforces proper nesting).
func (p *Profiler) Stop(name string, now time.Duration) error {
	if len(p.stack) == 0 {
		return fmt.Errorf("tau: Stop(%q) with no running timer", name)
	}
	top := p.stack[len(p.stack)-1]
	if top.timer.Name != name {
		return fmt.Errorf("tau: Stop(%q) but innermost timer is %q (improper nesting)", name, top.timer.Name)
	}
	j, err := p.readEnergy(now)
	if err != nil {
		return fmt.Errorf("tau: %w", err)
	}
	elapsed := now - top.startT
	if elapsed < 0 {
		return fmt.Errorf("tau: Stop(%q) at %v before Start at %v", name, now, top.startT)
	}
	joules := p.energyDelta(top.startJ, j)

	t := top.timer
	t.Calls++
	t.Inclusive += elapsed
	t.Exclusive += elapsed - top.childT
	t.InclusiveJ += joules
	t.ExclusiveJ += joules - top.childJ

	p.stack = p.stack[:len(p.stack)-1]
	if len(p.stack) > 0 {
		parent := p.stack[len(p.stack)-1]
		parent.childT += elapsed
		parent.childJ += joules
	}
	return nil
}

// Profile returns the per-timer records sorted by descending exclusive
// time (TAU's default ordering). It errors if timers are still running.
func (p *Profiler) Profile() ([]Timer, error) {
	if len(p.stack) > 0 {
		return nil, fmt.Errorf("tau: %d timer(s) still running (innermost %q)",
			len(p.stack), p.stack[len(p.stack)-1].timer.Name)
	}
	out := make([]Timer, 0, len(p.timers))
	for _, t := range p.timers {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Exclusive != out[j].Exclusive {
			return out[i].Exclusive > out[j].Exclusive
		}
		return out[i].Name < out[j].Name
	})
	return out, nil
}

// MeanPower reports a timer's mean inclusive power in watts (0 for an
// unobserved timer).
func (t Timer) MeanPower() float64 {
	if t.Inclusive <= 0 {
		return 0
	}
	return t.InclusiveJ / t.Inclusive.Seconds()
}
