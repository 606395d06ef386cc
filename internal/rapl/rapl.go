// Package rapl simulates Intel's Running Average Power Limit interface
// (paper Section II.B) on top of the internal/msr register file.
//
// Fidelity points reproduced from the paper and the Intel SDM:
//
//   - RAPL reports *energy*, not power: each domain has a 32-bit energy
//     status counter in units given by MSR_RAPL_POWER_UNIT (default
//     2^-16 J ≈ 15.3 µJ). Software derives watts from counter deltas.
//   - The counter updates on a ~1 ms cadence with a jittered boundary (the
//     paper: "updates happening within the range of ±50,000 cycles ...
//     relatively accurate for data collection at about 60 ms").
//   - The counter wraps: "these registers can 'overfill' if they are not
//     read frequently enough", producing erroneous data at long sampling
//     intervals. We model the 32-bit wrap exactly.
//   - Scope is the whole socket: "it's not possible to collect data for
//     individual cores", and DRAM is summed across channels.
//
// The model is the read path the paper prices. The power-limit MSRs are
// installed at their SDM addresses and read as disabled (zero): nothing in
// the stack caps power through RAPL.
package rapl

import (
	"fmt"
	"math"
	"sync"
	"time"

	"envmon/internal/msr"
	"envmon/internal/power"
	"envmon/internal/simrand"
	"envmon/internal/workload"
)

// Domain is a RAPL power plane (the rows of the paper's Table II).
type Domain int

const (
	PKG Domain = iota
	PP0
	PP1
	DRAM
	NumDomains = 4
)

var domainNames = [NumDomains]string{"PKG", "PP0", "PP1", "DRAM"}

func (d Domain) String() string {
	if d < 0 || d >= NumDomains {
		return fmt.Sprintf("Domain(%d)", int(d))
	}
	return domainNames[d]
}

// Domains lists the planes in Table II order.
func Domains() []Domain { return []Domain{PKG, PP0, PP1, DRAM} }

// Table II of the paper: domain descriptions.
var domainDescriptions = [NumDomains]string{
	PKG:  "Whole CPU package.",
	PP0:  "Processor cores.",
	PP1:  "The power plane of a specific device in the uncore (such as a integrated GPU–not useful in server platforms).",
	DRAM: "Sum of socket's DIMM power(s).",
}

// Description returns the paper's Table II text for the domain.
func (d Domain) Description() string { return domainDescriptions[d] }

// DomainInfo is one row of Table II.
type DomainInfo struct {
	Domain      Domain
	Name        string
	Description string
}

// Table2 returns the paper's Table II.
func Table2() []DomainInfo {
	out := make([]DomainInfo, 0, NumDomains)
	for _, d := range Domains() {
		out = append(out, DomainInfo{Domain: d, Name: d.String(), Description: d.Description()})
	}
	return out
}

// Unit-register encoding: real Sandy Bridge parts report
// MSR_RAPL_POWER_UNIT = 0xA1003 — power unit 2^-3 W, energy unit 2^-16 J
// (15.3 µJ), time unit 2^-10 s (976 µs).
const (
	unitRegisterValue = 0xA1003

	// EnergyUnit is 2^-16 J ≈ 15.3 µJ (Sandy Bridge energy status unit).
	EnergyUnit = 1.0 / (1 << 16)

	// UpdatePeriod is the counter refresh cadence.
	UpdatePeriod = time.Millisecond
	// UpdateJitter bounds the refresh boundary jitter: ±50,000 cycles at
	// ~2.6 GHz is about ±19 µs.
	UpdateJitter = 19 * time.Microsecond

	// CounterWrap is the modulus of the 32-bit energy status counter.
	CounterWrap = uint64(1) << 32
)

// WrapTime reports how long the counter takes to wrap at a constant draw —
// the longest safe sampling interval at that power.
func WrapTime(watts float64) time.Duration {
	if watts <= 0 {
		return time.Duration(math.MaxInt64)
	}
	seconds := float64(CounterWrap) * EnergyUnit / watts
	return time.Duration(seconds * float64(time.Second))
}

// Config describes a simulated socket.
type Config struct {
	Name string
	Seed uint64
	// Cores is the logical processor count exposed as /dev/cpu/*/msr
	// device nodes (all sharing the socket's register file).
	Cores int
	// UpdatePeriod overrides the counter refresh cadence (and the energy
	// integration grid). Zero means the 1 ms default. The Xeon Phi's
	// internal RAPL uses a coarser period.
	UpdatePeriod time.Duration
	// Models overrides the per-plane power models (must have NumDomains
	// entries when non-nil). The default is a Sandy Bridge desktop
	// calibration; the Xeon Phi's internal RAPL supplies its own.
	Models []power.DomainModel
	// DeviceSide marks a coprocessor socket: host-side (HostCPU) workload
	// activity does not land on its cores. A plain host socket folds
	// HostCPU activity into Compute.
	DeviceSide bool
}

type integState struct {
	nextCell int64   // first grid cell not yet integrated
	joules   float64 // accumulated energy over [0, nextCell*period)
}

// Socket is a simulated CPU socket with RAPL.
type Socket struct {
	mu     sync.Mutex
	name   string
	seed   uint64
	period time.Duration
	models [NumDomains]power.DomainModel
	integ  [NumDomains]integState

	job        workload.Workload
	jobStart   time.Duration
	deviceSide bool

	regs *msr.RegisterFile
}

// NewSocket builds a socket calibrated to the paper's Figure 3 magnitudes
// (Gaussian elimination on the whole package: ~12 W idle, ~50 W loaded)
// and installs its RAPL MSRs into a fresh register file.
func NewSocket(cfg Config) *Socket {
	if cfg.Name == "" {
		cfg.Name = "socket0"
	}
	period := cfg.UpdatePeriod
	if period <= 0 {
		period = UpdatePeriod
	}
	s := &Socket{
		name:   cfg.Name,
		seed:   simrand.New(cfg.Seed).Split("rapl-" + cfg.Name).Uint64(),
		period: period,
		models: [NumDomains]power.DomainModel{
			PKG:  {Name: "PKG", IdleW: 10, DynamicW: 45, WCompute: 0.75, WMemory: 0.25, WHostCPU: 0, NoiseFrac: 0.01},
			PP0:  {Name: "PP0", IdleW: 4, DynamicW: 35, WCompute: 1, NoiseFrac: 0.012},
			PP1:  {Name: "PP1", IdleW: 0.5, DynamicW: 0, NoiseFrac: 0.02},
			DRAM: {Name: "DRAM", IdleW: 2.5, DynamicW: 12, WMemory: 1, NoiseFrac: 0.012},
		},
		regs: msr.NewRegisterFile(),
	}
	s.deviceSide = cfg.DeviceSide
	if cfg.Models != nil {
		if len(cfg.Models) != NumDomains {
			panic(fmt.Sprintf("rapl: Config.Models has %d entries, need %d", len(cfg.Models), NumDomains))
		}
		copy(s.models[:], cfg.Models)
	}
	s.installRegisters()
	return s
}

// Name reports the socket name.
func (s *Socket) Name() string { return s.name }

// Registers exposes the socket's MSR register file (shared by all its
// logical processors).
func (s *Socket) Registers() *msr.RegisterFile { return s.regs }

// Driver builds a loaded-by-default=false msr driver exposing cores device
// nodes that all map to this socket's register file.
func (s *Socket) Driver(cores int) *msr.Driver {
	if cores <= 0 {
		cores = 1
	}
	files := make(map[int]*msr.RegisterFile, cores)
	for i := 0; i < cores; i++ {
		files[i] = s.regs
	}
	return msr.NewDriver(files)
}

// Run assigns a workload starting at the given simulated time.
func (s *Socket) Run(w workload.Workload, start time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.job = w
	s.jobStart = start
}

// activityAt reports workload activity; callers hold s.mu.
func (s *Socket) activityAt(t time.Duration) workload.Activity {
	if s.job == nil {
		return workload.Activity{}
	}
	a := s.job.ActivityAt(t - s.jobStart)
	// On a plain host socket, host-CPU activity of accelerator workloads
	// lands on the cores; a device-side socket (coprocessor) ignores it.
	if !s.deviceSide && a.HostCPU > a.Compute {
		a.Compute = a.HostCPU
	}
	return a
}

// cellPower computes the physical draw of domain d during grid cell i,
// with deterministic per-cell noise. Callers hold s.mu.
func (s *Socket) cellPower(d Domain, cell int64) float64 {
	mid := time.Duration(cell)*s.period + s.period/2
	rng := simrand.New(s.seed ^ uint64(d)<<58 ^ uint64(cell))
	return s.models[d].Power(s.activityAt(mid), rng)
}

// integrateTo advances domain d's energy accumulator so it covers
// [0, cell*period). Callers hold s.mu.
func (s *Socket) integrateTo(d Domain, cell int64) {
	st := &s.integ[d]
	dt := s.period.Seconds()
	for c := st.nextCell; c < cell; c++ {
		st.joules += s.cellPower(d, c) * dt
	}
	if cell > st.nextCell {
		st.nextCell = cell
	}
}

// visibleCell reports the last counter update boundary at or before t,
// including the per-update jitter ("±50,000 cycles").
func (s *Socket) visibleCell(t time.Duration) int64 {
	if t < 0 {
		return 0
	}
	c := int64(t / s.period)
	if c == 0 {
		return 0
	}
	// boundary of cell c occurs at c*period + jitter(c)
	jit := time.Duration(simrand.New(s.seed^uint64(c)*0x9E3779B9).Uniform(
		-float64(UpdateJitter), float64(UpdateJitter)))
	if t < time.Duration(c)*s.period+jit {
		c--
	}
	return c
}

// EnergyJoules reports the energy the counter exposes at simulated time t:
// the integral of the domain's power over [0, u(t)) where u is the last
// (jittered) update boundary. Reads must use non-decreasing t; earlier
// times return the already-integrated value.
func (s *Socket) EnergyJoules(d Domain, t time.Duration) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	cell := s.visibleCell(t)
	// If t precedes already-integrated state, integrateTo is a no-op and we
	// serve the stored accumulator: hardware counters never run backwards.
	s.integrateTo(d, cell)
	return s.integ[d].joules
}

// Counter reports the 32-bit energy status counter value at time t.
func (s *Socket) Counter(d Domain, t time.Duration) uint32 {
	units := uint64(s.EnergyJoules(d, t) / EnergyUnit)
	return uint32(units % CounterWrap)
}

// TruePower reports the instantaneous noiseless draw of a domain — ground
// truth for tests, not observable through the vendor interface.
func (s *Socket) TruePower(d Domain, t time.Duration) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.models[d].Power(s.activityAt(t), nil)
}

// installRegisters binds the RAPL MSRs.
func (s *Socket) installRegisters() {
	s.regs.Install(msr.RAPLPowerUnit, msr.Static(unitRegisterValue))
	status := map[msr.Address]Domain{
		msr.PkgEnergyStatus:  PKG,
		msr.PP0EnergyStatus:  PP0,
		msr.PP1EnergyStatus:  PP1,
		msr.DRAMEnergyStatus: DRAM,
	}
	for addr, d := range status {
		dom := d
		s.regs.Install(addr, msr.Func(func(now time.Duration) uint64 {
			return uint64(s.Counter(dom, now))
		}))
	}
	// No limit is ever programmed: each limit register reads as disabled.
	for _, addr := range []msr.Address{msr.PkgPowerLimit, msr.PP0PowerLimit, msr.PP1PowerLimit, msr.DRAMPowerLimit} {
		s.regs.Install(addr, msr.Static(0))
	}
}

// DecodeUnits parses an MSR_RAPL_POWER_UNIT value into (power, energy,
// time) units, as client software must.
func DecodeUnits(raw uint64) (powerW, energyJ, timeS float64) {
	powerW = 1.0 / float64(uint64(1)<<(raw&0xF))
	energyJ = 1.0 / float64(uint64(1)<<((raw>>8)&0x1F))
	timeS = 1.0 / float64(uint64(1)<<((raw>>16)&0xF))
	return powerW, energyJ, timeS
}
