package bgq

import (
	"time"

	"envmon/internal/core"
)

// EMON is the environmental monitoring API endpoint of one node card. It
// implements core.Collector. Every compute node on the card sees the same
// EMON data — the node-card granularity limitation the paper emphasizes.
type EMON struct {
	core.Mechanism
	card *NodeCard
	// stats
	queries int
}

// EMON returns the card's EMON API endpoint.
func (nc *NodeCard) EMON() *EMON { return &EMON{Mechanism: EMONAPI, card: nc} }

// Queries reports how many EMON queries have been issued on this endpoint.
func (e *EMON) Queries() int { return e.queries }

// CollectInto implements core.Collector: per-domain power, voltage, and
// current, plus the node-card total. The domains carry staggered generation
// timestamps (each reading's Time); a workload phase change can therefore
// appear in some domains one generation before others — the "inconsistent
// cases" of Section II.A. The total is stamped with the oldest generation:
// EMON serves "total power consumption from the oldest generation of power
// data".
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
