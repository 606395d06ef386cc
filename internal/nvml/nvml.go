// Package nvml simulates the NVIDIA Management Library (paper Section II.C).
//
// The API shape deliberately mirrors the real C library: an explicit
// Init before any query, device handles obtained by index, and typed
// return codes. Fidelity points from the paper:
//
//   - Only Kepler-architecture GPUs (K20, K40) support power collection;
//     querying power on an older part returns ErrorNotSupported.
//   - nvmlDeviceGetPowerUsage reports milliwatts for the *entire board*
//     including memory ("one must settle for total power consumption of the
//     whole card"), with ±5 W vendor-stated accuracy and an internal update
//     period of about 60 ms.
//   - Board power ramps slowly after a workload lands (Figure 4: "it takes
//     about 5 seconds before the power consumption levels off") — modeled
//     with a first-order lag over the 60 ms update grid.
//   - Per-query collection cost is ~1.3 ms (NVML call + PCI bus transfer),
//     the highest of the host-side APIs.
//
// The queries the collector makes — power, temperature, fan speed and
// memory — are the model's read path, over the K20 spec of the paper's
// experiments.
//
// Like the other vendor models, a device's observable state is advanced
// lazily on a fixed update grid, so reads are deterministic and replayable;
// readers must present non-decreasing timestamps.
package nvml

import (
	"fmt"
	"sync"
	"time"

	"envmon/internal/power"
	"envmon/internal/simrand"
	"envmon/internal/workload"
)

// Return is an NVML status code.
type Return int

const (
	Success Return = iota
	ErrorUninitialized
	ErrorInvalidArgument
	ErrorNotSupported
	ErrorNoPermission
	ErrorGPUIsLost
)

var returnStrings = map[Return]string{
	Success:              "Success",
	ErrorUninitialized:   "Uninitialized",
	ErrorInvalidArgument: "Invalid Argument",
	ErrorNotSupported:    "Not Supported",
	ErrorNoPermission:    "No Permission",
	ErrorGPUIsLost:       "GPU is lost",
}

func (r Return) String() string {
	if s, ok := returnStrings[r]; ok {
		return s
	}
	return fmt.Sprintf("Return(%d)", int(r))
}

// Error converts a non-Success code into an error (nil for Success).
func (r Return) Error() error {
	if r == Success {
		return nil
	}
	return fmt.Errorf("nvml: %s", r)
}

// Architecture distinguishes power-capable parts.
type Architecture int

const (
	Fermi Architecture = iota
	Kepler
)

// TemperatureSensor selects a temperature for GetTemperature.
type TemperatureSensor int

const (
	TemperatureGPU TemperatureSensor = iota
)

// Collection constants from the paper.
const (
	// PowerUpdatePeriod is the internal refresh cadence of the board power
	// sensor ("an update time of about 60ms").
	PowerUpdatePeriod = 60 * time.Millisecond
	// PowerAccuracyW is the vendor-stated accuracy ("±5W").
	PowerAccuracyW = 5.0
	// QueryCost is the per-call latency: "any call to the GPU for data
	// collection not only needs to go through the NVML library, it must
	// also transfer data across the PCI bus. Each collection takes about
	// 1.3 ms".
	QueryCost = 1300 * time.Microsecond
)

// DeviceSpec describes a GPU model.
type DeviceSpec struct {
	Name        string
	Arch        Architecture
	CUDACores   int
	MemoryBytes uint64
	PeakTFLOPS  float64
	IdleW       float64
	MaxW        float64       // board TDP
	RampTau     time.Duration // board power ramp time constant
}

// K20Spec is the paper's experiment card: "a NVIDIA K20 GPU which has a
// peak performance of 1.17 teraFLOPS at double precision, 5 GB of GDDR5
// memory, and 2496 CUDA cores".
func K20Spec() DeviceSpec {
	return DeviceSpec{
		Name: "Tesla K20", Arch: Kepler, CUDACores: 2496,
		MemoryBytes: 5 << 30, PeakTFLOPS: 1.17,
		IdleW: 44, MaxW: 225,
		RampTau: 1700 * time.Millisecond, // levels off ~5 s after a step
	}
}

// MemoryInfo mirrors nvmlMemory_t.
type MemoryInfo struct {
	TotalBytes uint64
	UsedBytes  uint64
	FreeBytes  uint64
}

// Device is one simulated GPU.
type Device struct {
	mu   sync.Mutex
	spec DeviceSpec
	seed uint64

	model   power.DomainModel
	lag     power.Lag
	thermal power.Thermal
	fan     power.Fan

	job      workload.Workload
	jobStart time.Duration

	// progressive 60 ms grid state
	nextCell int64
	boardW   float64 // lagged board power as of nextCell boundary
	lost     bool    // fallen off the bus (XID error); queries fail
}

// NewDevice builds a device from a spec with a deterministic noise stream.
func NewDevice(spec DeviceSpec, index int, seed uint64) *Device {
	d := &Device{
		spec: spec,
		seed: simrand.New(seed).Split(fmt.Sprintf("nvml-%s-%d", spec.Name, index)).Uint64(),
		model: power.DomainModel{
			Name:  "board",
			IdleW: spec.IdleW, DynamicW: spec.MaxW - spec.IdleW,
			// Board power includes memory: the GPU's compute and GDDR
			// traffic both land in the single figure.
			WCompute: 0.62, WMemory: 0.3, WPCIe: 0.08,
			NoiseFrac: 0.004,
		},
		lag:     power.Lag{Tau: spec.RampTau},
		thermal: power.Thermal{AmbientC: 38, RTh: 0.22, Tau: 40 * time.Second},
		fan:     power.Fan{MinRPM: 1800, MaxRPM: 4200, StartC: 50, MaxC: 88},
	}
	// Prime the filters at idle so a workload that starts at t=0 ramps up
	// from the idle floor instead of initializing at its loaded draw.
	d.boardW = d.lag.Apply(0, spec.IdleW)
	d.thermal.Update(0, spec.IdleW)
	return d
}

// Spec returns the device's static description.
func (d *Device) Spec() DeviceSpec { return d.spec }

// SetLost marks the device as fallen off the bus (the real library's
// NVML_ERROR_GPU_IS_LOST state after an XID error): subsequent queries
// fail until the device is recovered.
func (d *Device) SetLost(lost bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.lost = lost
}

// Run assigns a workload starting at the given simulated time.
func (d *Device) Run(w workload.Workload, start time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.job = w
	d.jobStart = start
}

func (d *Device) activityAt(t time.Duration) workload.Activity {
	if d.job == nil {
		return workload.Activity{}
	}
	return d.job.ActivityAt(t - d.jobStart)
}

// advanceTo steps the lag filter and thermal model along the 60 ms grid up
// to time t. Callers hold d.mu.
func (d *Device) advanceTo(t time.Duration) {
	cell := int64(t / PowerUpdatePeriod)
	for c := d.nextCell; c <= cell; c++ {
		at := time.Duration(c) * PowerUpdatePeriod
		rng := simrand.New(d.seed ^ uint64(c))
		target := d.model.Power(d.activityAt(at+PowerUpdatePeriod/2), rng)
		if target > d.spec.MaxW {
			target = d.spec.MaxW
		}
		d.boardW = d.lag.Apply(at, target)
		d.thermal.Update(at, d.boardW)
	}
	if cell >= d.nextCell {
		d.nextCell = cell + 1
	}
}

// truePowerAt reports the lagged board power at time t (no sensor error).
func (d *Device) truePowerAt(t time.Duration) float64 {
	d.advanceTo(t)
	return d.boardW
}
