package rapl

import (
	"fmt"
	"time"

	"envmon/internal/core"
	"envmon/internal/msr"
)

// componentFor maps a RAPL plane to the Table I component taxonomy.
func componentFor(d Domain) core.Component {
	switch d {
	case PKG:
		return core.Total
	case PP0:
		return core.Processor
	case PP1:
		return core.Board
	case DRAM:
		return core.MainMemory
	default:
		return core.Total
	}
}

// MSRCollector reads RAPL through an open /dev/cpu/*/msr handle — the
// userspace path the paper uses ("short of having a supported kernel the
// only way ... is to use the Linux MSR driver").
//
// The collector decodes MSR_RAPL_POWER_UNIT once, then on each Collect
// reads all four energy-status counters, derives joules from the 32-bit
// counter delta (handling a single wraparound — more than one wrap between
// reads is undetectable and silently undercounts, the "erroneous data" the
// paper warns about at >60 s sampling), and derives watts from
// joules/elapsed.
type MSRCollector struct {
	dev        *msr.Device
	energyUnit float64
	last       [NumDomains]struct {
		counter uint32
		at      time.Duration
		valid   bool
	}
	queries int
}

// NewMSRCollector decodes the unit register and returns a ready collector.
func NewMSRCollector(dev *msr.Device, now time.Duration) (*MSRCollector, error) {
	raw, err := dev.Read(msr.RAPLPowerUnit, now)
	if err != nil {
		return nil, fmt.Errorf("rapl: reading unit register: %w", err)
	}
	_, energyJ, _ := DecodeUnits(raw)
	return &MSRCollector{dev: dev, energyUnit: energyJ}, nil
}

// statusAddr maps a domain to its energy status MSR.
func statusAddr(d Domain) msr.Address {
	switch d {
	case PKG:
		return msr.PkgEnergyStatus
	case PP0:
		return msr.PP0EnergyStatus
	case PP1:
		return msr.PP1EnergyStatus
	case DRAM:
		return msr.DRAMEnergyStatus
	default:
		panic("rapl: bad domain")
	}
}

// Platform implements core.Collector.
func (c *MSRCollector) Platform() core.Platform { return core.RAPL }

// Method implements core.Collector.
func (c *MSRCollector) Method() string { return "MSR" }

// Cost implements core.Collector: ~0.03 ms per query (paper, II.B).
func (c *MSRCollector) Cost() time.Duration { return msr.ReadCost }

// MinInterval implements core.Collector: the paper concludes RAPL is
// "relatively accurate for data collection at about 60ms"; faster polling
// aliases the jittered counter updates.
func (c *MSRCollector) MinInterval() time.Duration { return 60 * time.Millisecond }

// Queries reports how many Collect calls have been made.
func (c *MSRCollector) Queries() int { return c.queries }

// CollectInto implements core.Collector. Each domain yields an Energy
// reading (cumulative joules since the collector's first sight of the
// counter) and, from the second collection on, a Power reading derived from
// the delta — appended to buf[:0] so a steady-state poll loop allocates
// nothing.
func (c *MSRCollector) CollectInto(buf []core.Reading, now time.Duration) ([]core.Reading, error) {
	c.queries++
	out := buf[:0]
	for _, d := range Domains() {
		raw, err := c.dev.Read(statusAddr(d), now)
		if err != nil {
			return buf[:0], fmt.Errorf("rapl: reading %s energy status: %w", d, err)
		}
		counter := uint32(raw)
		st := &c.last[d]
		if st.valid {
			delta := uint32(counter - st.counter) // modular: survives one wrap
			joules := float64(delta) * c.energyUnit
			dt := (now - st.at).Seconds()
			out = append(out, core.Reading{
				Cap:   core.Capability{Component: componentFor(d), Metric: core.Energy},
				Value: joules, Unit: "J", Time: now,
			})
			if dt > 0 {
				out = append(out, core.Reading{
					Cap:   core.Capability{Component: componentFor(d), Metric: core.Power},
					Value: joules / dt, Unit: "W", Time: now,
				})
			}
		}
		st.counter = counter
		st.at = now
		st.valid = true
	}
	return out, nil
}

// PerfReader is the perf_event kernel path (Linux >= 3.14). The kernel
// accumulates counter wraps into a 64-bit value, so wraparound is handled
// for the user; the price is a syscall per read. The paper could not
// measure this path ("we did not have ready access to a Linux machine
// running a new enough kernel") but expected it to be slower than raw MSR
// reads; we model the syscall + perf framework cost as 5x the MSR read
// (150 µs) and document the assumption in EXPERIMENTS.md.
type PerfReader struct {
	socket *Socket
	base   [NumDomains]float64
	last   [NumDomains]struct {
		joules float64
		at     time.Duration
		valid  bool
	}
	queries int
}

// PerfReadCost is the modeled per-query latency of the perf_event path.
const PerfReadCost = 150 * time.Microsecond

// NewPerfReader opens the perf-style reader on a socket at simulated time
// now; like a real perf event, the counter reads zero at open.
func NewPerfReader(s *Socket, now time.Duration) *PerfReader {
	p := &PerfReader{socket: s}
	for _, d := range Domains() {
		p.base[d] = s.EnergyJoules(d, now)
	}
	return p
}

// Platform implements core.Collector.
func (p *PerfReader) Platform() core.Platform { return core.RAPL }

// Method implements core.Collector.
func (p *PerfReader) Method() string { return "perf" }

// Cost implements core.Collector.
func (p *PerfReader) Cost() time.Duration { return PerfReadCost }

// MinInterval implements core.Collector (same counter cadence as the MSR
// path).
func (p *PerfReader) MinInterval() time.Duration { return 60 * time.Millisecond }

// Queries reports how many Collect calls have been made.
func (p *PerfReader) Queries() int { return p.queries }

// EnergyJoules reads a domain's cumulative energy since the reader was
// opened, free of wraparound (the kernel folds wraps into 64 bits).
func (p *PerfReader) EnergyJoules(d Domain, now time.Duration) float64 {
	return p.socket.EnergyJoules(d, now) - p.base[d]
}

// CollectInto implements core.Collector with the same reading layout as
// the MSR path.
func (p *PerfReader) CollectInto(buf []core.Reading, now time.Duration) ([]core.Reading, error) {
	p.queries++
	out := buf[:0]
	for _, d := range Domains() {
		j := p.EnergyJoules(d, now)
		st := &p.last[d]
		if st.valid {
			dj := j - st.joules
			dt := (now - st.at).Seconds()
			out = append(out, core.Reading{
				Cap:   core.Capability{Component: componentFor(d), Metric: core.Energy},
				Value: dj, Unit: "J", Time: now,
			})
			if dt > 0 {
				out = append(out, core.Reading{
					Cap:   core.Capability{Component: componentFor(d), Metric: core.Power},
					Value: dj / dt, Unit: "W", Time: now,
				})
			}
		}
		st.joules = j
		st.at = now
		st.valid = true
	}
	return out, nil
}
