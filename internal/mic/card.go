// Package mic simulates an Intel Xeon Phi coprocessor card and its three
// environmental collection paths (paper Section II.D, Figure 6):
//
//   - "in-band": the host-side SysMgmt API crosses the SCIF to the card,
//     where code must wake up, collect, and return — so each query costs a
//     staggering ~14.2 ms and *raises the card's power draw* (the effect
//     behind the paper's Figure 7).
//   - "out-of-band": the card's System Management Controller (SMC) answers
//     queries from the platform BMC over the IPMB bus — slow (I²C) but free
//     of any disturbance to the card.
//   - the MICRAS daemon (internal/micras): on-card pseudo-files whose reads
//     cost ~0.04 ms, "almost the same [as] RAPL ... because the
//     implementation on both is essentially the same; the Xeon Phi actually
//     uses RAPL internally".
//
// Accordingly, the card's power state genuinely is an internal RAPL socket
// (internal/rapl) with Phi-calibrated planes; the SMC derives its power
// register from RAPL energy deltas over its 50 ms refresh window.
package mic

import (
	"fmt"
	"sync"
	"time"

	"envmon/internal/power"
	"envmon/internal/rapl"
	"envmon/internal/simrand"
	"envmon/internal/workload"
)

// Hardware constants for the paper's card: "61 cores with each core having
// 4 hardware threads per core yielding a total of 244 threads with a peak
// performance of 1.2 teraFLOPS at double precision".
const (
	Cores          = 61
	ThreadsPerCore = 4
	Threads        = Cores * ThreadsPerCore
	PeakTFLOPS     = 1.2
	MemoryBytes    = 8 << 30 // GDDR5
	CoreClockMHz   = 1100
	MemSpeedKTps   = 5500 // GDDR5 kT/s
	CoreVoltage    = 1.03
	MemVoltage     = 1.5
	BoardOverheadW = 12.0 // fans, VRs, misc logic outside the RAPL planes
	// InBandWakeBoostW is the extra draw while the card services an in-band
	// query: cores leave their idle states to run the collection code. At
	// 14.2 ms handling per 100 ms poll this contributes the ~4 W mean shift
	// of Figure 7.
	InBandWakeBoostW = 30.0

	// SMCUpdatePeriod is the SMC's sensor refresh cadence.
	SMCUpdatePeriod = 50 * time.Millisecond

	// raplUpdatePeriod is the internal RAPL grid — coarser than a host CPU,
	// fine enough for the SMC's 50 ms window.
	raplUpdatePeriod = 10 * time.Millisecond
)

// Per-query collection costs from the paper.
const (
	// InBandQueryCost: "each collection takes a staggering 14.2 ms".
	InBandQueryCost = 14200 * time.Microsecond
	// DaemonQueryCost: "about 0.04 ms per query" via the MICRAS daemon.
	DaemonQueryCost = 40 * time.Microsecond
	// DaemonPowerCostW is the small additional draw of the collection code
	// sharing the card with the application (the daemon side of Fig. 7).
	DaemonPowerCostW = 0.8
)

// Config describes one card.
type Config struct {
	Index int // mic0, mic1, ...
	Seed  uint64
}

// wakeWindow is a period during which in-band collection code runs on the
// card.
type wakeWindow struct {
	start, end time.Duration
}

// Card is a simulated Xeon Phi.
type Card struct {
	mu   sync.Mutex
	name string
	seed uint64

	internal *rapl.Socket // the card's internal RAPL (PKG = 61 cores, DRAM = GDDR)
	dieTherm power.Thermal
	memTherm power.Thermal
	fan      power.Fan

	job      workload.Workload
	jobStart time.Duration

	wakes      []wakeWindow // in-band query side effects
	daemonBusy bool         // a daemon consumer is actively polling

	// SMC sampler state: the SMC walks a 50 ms grid, deriving each cell's
	// power from RAPL energy deltas plus in-band wake activity, smoothing
	// the result into its power register, and feeding the thermal models.
	smcCell    int64
	lastEnergy float64   // PKG+DRAM joules at the last grid boundary
	smcFilter  power.Lag // register smoothing (~300 ms)
	smcPowerW  float64   // current power register
	dieC, memC float64

	// MCA error-log state (see ras.go)
	mcaCell int64
	mcaLog  []MCAEvent
}

// New builds a card. Internal RAPL planes are calibrated so a no-op
// workload draws ~112 W board power and a Phi-side Gaussian elimination
// ~200 W (Figures 7 and 8 magnitudes).
func New(cfg Config) *Card {
	name := fmt.Sprintf("mic%d", cfg.Index)
	seed := simrand.New(cfg.Seed).Split("mic-" + name).Uint64()
	c := &Card{
		name: name,
		seed: seed,
		internal: rapl.NewSocket(rapl.Config{
			Name:         name,
			Seed:         seed,
			UpdatePeriod: raplUpdatePeriod,
			DeviceSide:   true,
			Models: []power.DomainModel{
				// PKG: the 61-core die plus uncore.
				{Name: "PKG", IdleW: 62, DynamicW: 115, WCompute: 0.85, WMemory: 0.15, NoiseFrac: 0.006},
				// PP0: the cores alone.
				{Name: "PP0", IdleW: 40, DynamicW: 95, WCompute: 1, NoiseFrac: 0.008},
				// PP1: unused uncore plane.
				{Name: "PP1", IdleW: 0.5, DynamicW: 0, NoiseFrac: 0.02},
				// DRAM: the GDDR5 devices.
				{Name: "DRAM", IdleW: 26, DynamicW: 30, WMemory: 0.8, WPCIe: 0.2, NoiseFrac: 0.008},
			},
		}),
		dieTherm:  power.Thermal{AmbientC: 40, RTh: 0.28, Tau: 35 * time.Second},
		memTherm:  power.Thermal{AmbientC: 40, RTh: 0.18, Tau: 50 * time.Second},
		fan:       power.Fan{MinRPM: 1200, MaxRPM: 3600, StartC: 55, MaxC: 95},
		smcFilter: power.Lag{Tau: 300 * time.Millisecond},
	}
	c.dieC, c.memC = 40, 40
	return c
}

// Name reports the card's device name ("mic0").
func (c *Card) Name() string { return c.name }

// InternalRAPL exposes the card's internal RAPL socket — present because,
// as the paper notes, "the Xeon Phi actually uses RAPL internally for power
// consumption limitation".
func (c *Card) InternalRAPL() *rapl.Socket { return c.internal }

// Run assigns a workload starting at the given simulated time. Device-side
// phases (Compute/Memory) drive the card; host-side phases leave it idle.
func (c *Card) Run(w workload.Workload, start time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.job = w
	c.jobStart = start
	c.internal.Run(w, start)
}

// SetDaemonBusy marks whether an on-card consumer is polling the daemon,
// adding the small contention draw of the collection process.
func (c *Card) SetDaemonBusy(busy bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.daemonBusy = busy
}

// recordWake logs an in-band collection window (called by the SysMgmt
// service handler). The SMC walks its sampling grid forward only, so a
// window that ended before the cell it evaluates next can never overlap
// again; those are cut off the front (in place), so a card polled for as
// long as a daemon runs holds a handful of windows, not one per poll.
func (c *Card) recordWake(start, end time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cutoff := time.Duration(c.smcCell-1) * SMCUpdatePeriod
	done := 0
	for done < len(c.wakes) && c.wakes[done].end <= cutoff {
		done++
	}
	c.wakes = append(c.wakes[:copy(c.wakes, c.wakes[done:])], wakeWindow{start, end})
}

// wakeOverlap reports how much of [a, b) overlaps in-band collection
// windows. Callers hold c.mu.
func (c *Card) wakeOverlap(a, b time.Duration) time.Duration {
	var total time.Duration
	// Windows are appended in time order (queries come from a monotonic
	// clock); scan backward and stop once windows end well before a.
	for i := len(c.wakes) - 1; i >= 0; i-- {
		w := c.wakes[i]
		if w.end <= a {
			break
		}
		lo, hi := w.start, w.end
		if lo < a {
			lo = a
		}
		if hi > b {
			hi = b
		}
		if hi > lo {
			total += hi - lo
		}
	}
	return total
}

// advanceSMCTo walks the SMC's 50 ms sampling grid up to time t: at each
// boundary the SMC reads the internal RAPL energy counters (a strictly
// monotone access pattern), adds the energy drawn by in-band collection
// wake-ups during the cell, smooths the cell power into its register, and
// feeds the thermal models. Callers hold c.mu.
func (c *Card) advanceSMCTo(t time.Duration) {
	cell := int64(t / SMCUpdatePeriod)
	for cl := c.smcCell; cl <= cell; cl++ {
		at := time.Duration(cl) * SMCUpdatePeriod
		e := c.internal.EnergyJoules(rapl.PKG, at) + c.internal.EnergyJoules(rapl.DRAM, at)
		var cellW float64
		if cl > 0 {
			overlap := c.wakeOverlap(at-SMCUpdatePeriod, at)
			wakeJ := InBandWakeBoostW * overlap.Seconds()
			cellW = (e - c.lastEnergy + wakeJ) / SMCUpdatePeriod.Seconds()
		}
		c.lastEnergy = e
		c.smcPowerW = c.smcFilter.Apply(at, cellW)
		c.dieC = c.dieTherm.Update(at, c.smcPowerW*0.8)
		c.memC = c.memTherm.Update(at, c.smcPowerW*0.25)
	}
	if cell >= c.smcCell {
		c.smcCell = cell + 1
	}
}

// TotalPower reports the card's board power as the SMC exposes it at time
// t: the smoothed RAPL-plane power (including in-band wake energy), plus
// board overhead and the daemon contention cost when a daemon consumer is
// active. Reads must use non-decreasing t.
func (c *Card) TotalPower(t time.Duration) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advanceSMCTo(t)
	w := c.smcPowerW + BoardOverheadW
	if c.daemonBusy {
		w += DaemonPowerCostW
	}
	return w
}

// Temperatures reports die, GDDR, intake, and exhaust temperatures at t.
func (c *Card) Temperatures(t time.Duration) (die, gddr, intake, exhaust float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advanceSMCTo(t)
	rng := simrand.New(c.seed ^ 0x7E39 ^ uint64(t/SMCUpdatePeriod))
	intake = rng.Normal(38, 0.3)
	exhaust = intake + (c.dieC-intake)*0.45
	return c.dieC, c.memC, intake, exhaust
}

// FanRPM reports the cooling fan speed at t.
func (c *Card) FanRPM(t time.Duration) float64 {
	die, _, _, _ := c.Temperatures(t)
	return c.fan.RPM(die)
}

// MemoryUsage reports GDDR occupancy following the workload's device
// phases.
func (c *Card) MemoryUsage(t time.Duration) (total, used, free uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var frac float64
	if c.job != nil {
		a := c.job.ActivityAt(t - c.jobStart)
		frac = a.Memory
		if a.Compute > frac {
			frac = a.Compute
		}
		if a.PCIe > frac {
			frac = a.PCIe
		}
	}
	base := uint64(500 << 20) // coprocessor OS + driver
	used = base + uint64(frac*0.55*float64(MemoryBytes))
	if used > MemoryBytes {
		used = MemoryBytes
	}
	return MemoryBytes, used, MemoryBytes - used
}

// CoreFrequencyMHz reports the core clock (the card downclocks when idle).
func (c *Card) CoreFrequencyMHz(t time.Duration) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.job != nil && c.job.ActivityAt(t-c.jobStart).Compute > 0 {
		return CoreClockMHz
	}
	return 600
}
