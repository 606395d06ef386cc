// Package core defines the vendor-neutral abstractions that unify the four
// environmental-data collection mechanisms the paper studies: metrics,
// hardware components, device sets, and collectors.
//
// The paper's central complaint is that "there is hardly a uniform method of
// access" across vendors — each platform exposes different data through a
// different mechanism at a different granularity. This package is the
// "standard interface to monitoring data" the paper's Section I calls for:
// every vendor backend (internal/bgq, internal/rapl, internal/nvml,
// internal/mic) implements these interfaces, and MonEQ (internal/moneq)
// programs only against them.
//
// The capability matrix of the paper's Table I is encoded here as data and
// regenerated by the benchmark harness.
package core

import (
	"errors"
	"fmt"
	"time"
)

// Platform identifies one of the four vendor mechanisms compared in the
// paper.
type Platform int

const (
	XeonPhi   Platform = iota // Intel Xeon Phi / MIC (SCIF, MICRAS, SMC)
	NVML                      // NVIDIA Management Library (Kepler K20/K40)
	BlueGeneQ                 // IBM Blue Gene/Q (EMON + environmental database)
	RAPL                      // Intel Running Average Power Limit (MSRs)
)

var platformNames = map[Platform]string{
	XeonPhi:   "Xeon Phi",
	NVML:      "NVML",
	BlueGeneQ: "Blue Gene/Q",
	RAPL:      "RAPL",
}

func (p Platform) String() string {
	if s, ok := platformNames[p]; ok {
		return s
	}
	return fmt.Sprintf("Platform(%d)", int(p))
}

// Platforms lists all platforms in the column order of the paper's Table I.
func Platforms() []Platform { return []Platform{XeonPhi, NVML, BlueGeneQ, RAPL} }

// Metric is a kind of environmental quantity.
type Metric int

const (
	Power       Metric = iota // watts
	Voltage                   // volts
	Current                   // amperes
	Temperature               // degrees Celsius
	MemoryUsed                // bytes
	MemoryFree                // bytes
	MemorySpeed               // kilotransfers/second
	Frequency                 // hertz
	ClockRate                 // hertz
	FanSpeed                  // RPM
	PowerLimit                // watts (get/set)
	Energy                    // joules (RAPL counters are energy, not power)
)

var metricNames = map[Metric]string{
	Power:       "Power",
	Voltage:     "Voltage",
	Current:     "Current",
	Temperature: "Temperature",
	MemoryUsed:  "Memory Used",
	MemoryFree:  "Memory Free",
	MemorySpeed: "Memory Speed",
	Frequency:   "Frequency",
	ClockRate:   "Clock Rate",
	FanSpeed:    "Fan Speed",
	PowerLimit:  "Power Limit",
	Energy:      "Energy",
}

func (m Metric) String() string {
	if s, ok := metricNames[m]; ok {
		return s
	}
	return fmt.Sprintf("Metric(%d)", int(m))
}

// Unit returns the canonical unit string for the metric.
func (m Metric) Unit() string {
	switch m {
	case Power, PowerLimit:
		return "W"
	case Voltage:
		return "V"
	case Current:
		return "A"
	case Temperature:
		return "degC"
	case MemoryUsed, MemoryFree:
		return "B"
	case MemorySpeed:
		return "kT/s"
	case Frequency, ClockRate:
		return "Hz"
	case FanSpeed:
		return "RPM"
	case Energy:
		return "J"
	default:
		return "?"
	}
}

// Component is the part of the device a sensor observes — the row groups of
// Table I.
type Component int

const (
	Total      Component = iota // whole device/board/node card
	PCIExpress                  // PCIe interface power
	MainMemory                  // DRAM/GDDR power
	Die                         // processor die
	DDR                         // memory chips (temperature)
	Board                       // device/board-level sensor (Table I row label "Device")
	Intake                      // fan-in air
	Exhaust                     // fan-out air
	Processor                   // processor cores
	Memory                      // memory subsystem (used/free/speed rows)
	Fan                         // cooling fan
)

var componentNames = map[Component]string{
	Total:      "Total",
	PCIExpress: "PCI Express",
	MainMemory: "Main Memory",
	Die:        "Die",
	DDR:        "DDR/GDDR",
	Board:      "Device",
	Intake:     "Intake (Fan-In)",
	Exhaust:    "Exhaust (Fan-Out)",
	Processor:  "Processor",
	Memory:     "Memory",
	Fan:        "Fans",
}

func (c Component) String() string {
	if s, ok := componentNames[c]; ok {
		return s
	}
	return fmt.Sprintf("Component(%d)", int(c))
}

// Capability names one cell coordinate of Table I: a metric of a component.
type Capability struct {
	Component Component
	Metric    Metric
}

func (c Capability) String() string {
	// Plain concatenation, not fmt: this runs on every first-seen series
	// name build in the collection and aggregation layers.
	return c.Component.String() + " " + c.Metric.String()
}

// Support is a tri-state Table I cell: supported, unsupported, or not
// applicable to the hardware (e.g. fans on a water-cooled BG/Q rack).
type Support int

const (
	Unsupported Support = iota
	Supported
	NotApplicable
)

func (s Support) String() string {
	switch s {
	case Supported:
		return "yes"
	case NotApplicable:
		return "N/A"
	default:
		return "no"
	}
}

// Reading is one observation from a sensor.
type Reading struct {
	Cap   Capability
	Value float64
	Unit  string
	// Time is the simulated time the observation was taken. Because several
	// mechanisms serve stale data (EMON serves "the oldest generation"; NVML
	// updates internally every ~60 ms), Time can precede the query time.
	Time time.Duration
}

// Collector is a mechanism for gathering a batch of environmental data from
// a device: an API, a daemon pseudo-file, a register read. Collectors are
// what MonEQ polls; their per-query cost is the paper's central overhead
// comparison (Section IV / Table T4 of our harness).
type Collector interface {
	// Platform reports the vendor mechanism.
	Platform() Platform
	// Method names the access path (e.g. "EMON", "MSR", "perf", "NVML",
	// "SysMgmt API", "MICRAS daemon").
	Method() string
	// CollectInto gathers the current generation of data. now is the
	// simulated time at the start of the call; implementations advance
	// simulated time by their per-query latency via their clock, and the
	// caller can observe that cost with Cost().
	//
	// The poll's readings are appended to buf[:0] and the extended slice is
	// returned, so a steady-state polling loop that hands the previous
	// slice back performs zero allocations once the buffer has grown to the
	// poll's working size; a caller that wants a fresh slice passes nil. On
	// error the returned slice is buf[:0] (or a prefix); its capacity
	// remains valid for reuse but its contents must be discarded.
	CollectInto(buf []Reading, now time.Duration) ([]Reading, error)
	// Cost reports the per-query collection latency of this mechanism in
	// simulated time (e.g. 30 µs for a direct MSR read, 14.2 ms for the Xeon
	// Phi SysMgmt API).
	Cost() time.Duration
	// MinInterval reports the lowest polling interval at which the
	// mechanism yields fresh, meaningful data — what MonEQ uses "in its
	// default mode" (560 ms for EMON generations, ~60 ms for RAPL and
	// NVML's internal update cadence, the SMC refresh for the Phi paths).
	MinInterval() time.Duration
}

// ErrNotSupported is returned when a metric/component combination is not
// available on a platform (an ✗ cell of Table I).
var ErrNotSupported = errors.New("core: capability not supported on this platform")

// ErrPermission is returned by access paths that require elevated
// privileges (e.g. reading /dev/cpu/*/msr without root).
var ErrPermission = errors.New("core: permission denied")
