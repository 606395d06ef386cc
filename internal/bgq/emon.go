package bgq

import (
	"fmt"
	"time"

	"envmon/internal/core"
)

// EMONReading is one domain's data from an EMON query: the voltage and
// current the API actually exposes, the derived power, and the generation
// timestamp of the data (which lags the query time — EMON serves "total
// power consumption from the oldest generation of power data").
type EMONReading struct {
	Domain     Domain
	Volts      float64
	Amps       float64
	Watts      float64
	Generation time.Duration
}

// EMON is the environmental monitoring API endpoint of one node card. It
// implements core.Collector. Every compute node on the card sees the same
// EMON data — the node-card granularity limitation the paper emphasizes.
type EMON struct {
	card *NodeCard
	// stats
	queries int
}

// EMON returns the card's EMON API endpoint.
func (nc *NodeCard) EMON() *EMON { return &EMON{card: nc} }

// Card returns the node card this endpoint belongs to.
func (e *EMON) Card() *NodeCard { return e.card }

// ReadDomains performs one EMON query at simulated time now, returning all
// 7 domains. The domains carry staggered generation timestamps; a workload
// phase change can therefore appear in some domains one generation before
// others — the "inconsistent cases" of Section II.A.
func (e *EMON) ReadDomains(now time.Duration) []EMONReading {
	e.queries++
	out := make([]EMONReading, 0, NumDomains)
	for _, d := range Domains() {
		v, a, gen := e.card.DomainVI(d, now)
		out = append(out, EMONReading{
			Domain: d, Volts: v, Amps: a, Watts: v * a, Generation: gen,
		})
	}
	return out
}

// Queries reports how many EMON queries have been issued on this endpoint.
func (e *EMON) Queries() int { return e.queries }

// Platform implements core.Collector.
func (e *EMON) Platform() core.Platform { return core.BlueGeneQ }

// Method implements core.Collector.
func (e *EMON) Method() string { return "EMON" }

// Cost implements core.Collector: 1.10 ms per collection (paper, II.A).
func (e *EMON) Cost() time.Duration { return EMONReadCost }

// MinInterval implements core.Collector: EMON produces a new generation
// every 560 ms — the "lowest polling interval possible" on BG/Q.
func (e *EMON) MinInterval() time.Duration { return EMONGeneration }

// CollectInto implements core.Collector: per-domain power, voltage, and
// current, plus the node-card total. The domain loop runs inline
// against the card rather than through ReadDomains, so the poll path builds
// no intermediate EMONReading slice.
func (e *EMON) CollectInto(buf []core.Reading, now time.Duration) ([]core.Reading, error) {
	e.queries++
	out := buf[:0]
	var total float64
	var oldest time.Duration = -1
	for _, d := range Domains() {
		v, a, gen := e.card.DomainVI(d, now)
		watts := v * a
		total += watts
		if oldest < 0 || gen < oldest {
			oldest = gen
		}
		comp := domainComponent(d)
		out = append(out,
			core.Reading{Cap: core.Capability{Component: comp, Metric: core.Power}, Value: watts, Unit: "W", Time: gen},
			core.Reading{Cap: core.Capability{Component: comp, Metric: core.Voltage}, Value: v, Unit: "V", Time: gen},
			core.Reading{Cap: core.Capability{Component: comp, Metric: core.Current}, Value: a, Unit: "A", Time: gen},
		)
	}
	out = append(out, core.Reading{
		Cap:   core.Capability{Component: core.Total, Metric: core.Power},
		Value: total, Unit: "W", Time: oldest,
	})
	return out, nil
}

// domainComponent maps a BG/Q domain onto the vendor-neutral component
// taxonomy of Table I.
func domainComponent(d Domain) core.Component {
	switch d {
	case ChipCore:
		return core.Processor
	case DRAM:
		return core.MainMemory
	case PCIExpress:
		return core.PCIExpress
	case SRAM:
		return core.Die
	default: // link chips, HSS network, optics: interconnect hardware
		return core.Board
	}
}

// String aids debugging.
func (r EMONReading) String() string {
	return fmt.Sprintf("%s: %.2f W (%.3f V, %.2f A) @%v", r.Domain, r.Watts, r.Volts, r.Amps, r.Generation)
}
