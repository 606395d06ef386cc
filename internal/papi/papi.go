// Package papi implements a PAPI-style component API over the simulated
// vendor mechanisms — the alternative profiling tool the paper's Section
// III compares MonEQ against: "PAPI is traditionally known for its ability
// to gather performance data, however the authors have recently begun
// including the ability to collect power data. PAPI supports collecting
// power consumption information for Intel RAPL, NVML, and the Xeon Phi."
//
// The API mirrors PAPI 5's shape: a library initialized once, components
// enumerating native events (e.g. "rapl:::PACKAGE_ENERGY:PACKAGE0",
// "nvml:::Tesla_K20:power"), and event sets that are created, loaded with
// events, started, read, and stopped. Counters are int64 in each
// component's native unit (nanojoules for RAPL energy, milliwatts for NVML
// power, microwatts for the MIC — matching real PAPI component
// conventions).
//
// Having a second, independently-shaped consumer of the same vendor
// substrates is also a design check on internal/core: both MonEQ and this
// package sit on the same mechanisms without either needing special hooks.
package papi

import (
	"fmt"
	"strings"
	"time"
)

// Component provides native events from one vendor mechanism.
type Component interface {
	// Name is the PAPI component name ("rapl", "nvml", "micpower").
	Name() string
	// Events lists the native event names, sorted.
	Events() []string
	// Read returns the current value of a native event at simulated time
	// now, in the component's native unit.
	Read(event string, now time.Duration) (int64, error)
	// Kind reports whether an event is a Counter (read as a delta from
	// Start) or a Gauge (read raw).
	Kind(event string) EventKind
}

// Library is the PAPI entry point.
type Library struct {
	inited     bool
	components map[string]Component
}

// NewLibrary returns an uninitialized library over the given components.
// Duplicate component names are rejected.
func NewLibrary(components ...Component) (*Library, error) {
	l := &Library{components: make(map[string]Component, len(components))}
	for _, c := range components {
		if _, dup := l.components[c.Name()]; dup {
			return nil, fmt.Errorf("papi: duplicate component %q", c.Name())
		}
		l.components[c.Name()] = c
	}
	return l, nil
}

// Init mirrors PAPI_library_init.
func (l *Library) Init() error {
	if l.inited {
		return fmt.Errorf("papi: library already initialized")
	}
	l.inited = true
	return nil
}

// resolve splits a fully qualified event name "component:::EVENT" and
// validates it.
func (l *Library) resolve(event string) (Component, string, error) {
	name, native, found := strings.Cut(event, ":::")
	if !found {
		return nil, "", fmt.Errorf("papi: event %q is not of the form component:::EVENT", event)
	}
	c, ok := l.components[name]
	if !ok {
		return nil, "", fmt.Errorf("papi: no component %q for event %q", name, event)
	}
	for _, e := range c.Events() {
		if e == native {
			return c, native, nil
		}
	}
	return nil, "", fmt.Errorf("papi: component %q has no event %q", name, native)
}

// EventSet state machine, as in PAPI.
type setState int

const (
	setStopped setState = iota
	setRunning
)

// EventSet is a group of events read together.
type EventSet struct {
	lib    *Library
	events []string
	comps  []Component
	native []string
	state  setState
	// values at Start, so Read/Stop report deltas for accumulating
	// counters (PAPI semantics: counters are zeroed by PAPI_start).
	base    []int64
	startAt time.Duration
}

// CreateEventSet mirrors PAPI_create_eventset.
func (l *Library) CreateEventSet() (*EventSet, error) {
	if !l.inited {
		return nil, fmt.Errorf("papi: library not initialized")
	}
	return &EventSet{lib: l}, nil
}

// AddEvent adds a fully qualified event ("rapl:::PACKAGE_ENERGY:PACKAGE0").
// Events cannot be added while the set is running.
func (es *EventSet) AddEvent(event string) error {
	if es.state == setRunning {
		return fmt.Errorf("papi: cannot add events to a running set")
	}
	c, native, err := es.lib.resolve(event)
	if err != nil {
		return err
	}
	for _, have := range es.events {
		if have == event {
			return fmt.Errorf("papi: event %q already in set", event)
		}
	}
	es.events = append(es.events, event)
	es.comps = append(es.comps, c)
	es.native = append(es.native, native)
	return nil
}

// Start mirrors PAPI_start: zeroes the virtual counters at now.
func (es *EventSet) Start(now time.Duration) error {
	if es.state == setRunning {
		return fmt.Errorf("papi: set already running")
	}
	if len(es.events) == 0 {
		return fmt.Errorf("papi: set has no events")
	}
	es.base = make([]int64, len(es.events))
	for i := range es.events {
		v, err := es.comps[i].Read(es.native[i], now)
		if err != nil {
			return fmt.Errorf("papi: starting %q: %w", es.events[i], err)
		}
		es.base[i] = v
	}
	es.startAt = now
	es.state = setRunning
	return nil
}

// Read mirrors PAPI_read: values since Start, in event order.
func (es *EventSet) Read(now time.Duration) ([]int64, error) {
	if es.state != setRunning {
		return nil, fmt.Errorf("papi: set not running")
	}
	if now < es.startAt {
		return nil, fmt.Errorf("papi: read at %v precedes start at %v", now, es.startAt)
	}
	out := make([]int64, len(es.events))
	for i := range es.events {
		v, err := es.comps[i].Read(es.native[i], now)
		if err != nil {
			return nil, fmt.Errorf("papi: reading %q: %w", es.events[i], err)
		}
		if es.comps[i].Kind(es.native[i]) == Gauge {
			out[i] = v // instantaneous value, not a delta
		} else {
			out[i] = v - es.base[i]
		}
	}
	return out, nil
}

// Stop mirrors PAPI_stop: final values, set returns to stopped.
func (es *EventSet) Stop(now time.Duration) ([]int64, error) {
	vals, err := es.Read(now)
	if err != nil {
		return nil, err
	}
	es.state = setStopped
	return vals, nil
}
