// Package bgq simulates the IBM Blue Gene/Q environmental monitoring stack
// described in Section II.A of the paper.
//
// The simulated machine reproduces the paper's topology: a rack holds two
// midplanes, each midplane 16 node boards, each node board 32 compute cards
// (1,024 nodes and 16,384 cores per rack). Environmental data is exposed two
// ways, exactly as on the real machine:
//
//   - The environmental database path: bulk power modules (BPMs) and other
//     rack infrastructure are sampled by a poller at a configurable 60–1800 s
//     interval (about 4 minutes on Mira) into internal/envdb, recording
//     power in watts and amperes in both the input and output directions.
//     This is the data of the paper's Figure 1.
//   - The EMON API path: code on a compute node can read per-domain voltage
//     and current for the 7 power domains of its *node card* (granularity of
//     32 nodes — "part of the design of the system and it is not possible to
//     overcome in software"). EMON serves the oldest generation of power
//     data: values update on a fixed generation cadence and the domains are
//     not sampled at the same instant. This is the data of Figure 2.
//
// Power is computed lazily and deterministically: the draw of domain d of
// node card c during generation g is a pure function of (machine seed, c, d,
// g) and the card's workload activity at the generation time, so repeated
// reads of one generation return identical values and whole runs replay
// byte-for-byte.
package bgq

import (
	"fmt"
	"time"

	"envmon/internal/power"
	"envmon/internal/simrand"
	"envmon/internal/workload"
)

// Domain is one of the 7 BG/Q node-card power domains, in the legend order
// of the paper's Figure 2.
type Domain int

const (
	ChipCore Domain = iota
	DRAM
	LinkChipCore
	HSSNetwork
	Optics
	PCIExpress
	SRAM
	NumDomains = 7
)

var domainNames = [NumDomains]string{
	"Chip Core", "DRAM", "Link Chip Core", "HSS Network",
	"Optics", "PCI Express", "SRAM",
}

func (d Domain) String() string {
	if d < 0 || d >= NumDomains {
		return fmt.Sprintf("Domain(%d)", int(d))
	}
	return domainNames[d]
}

// Domains lists all 7 domains in display order.
func Domains() []Domain {
	return []Domain{ChipCore, DRAM, LinkChipCore, HSSNetwork, Optics, PCIExpress, SRAM}
}

// Topology constants from the paper's description of Mira.
const (
	MidplanesPerRack  = 2
	BoardsPerMidplane = 16
	NodesPerBoard     = 32
	NodesPerRack      = MidplanesPerRack * BoardsPerMidplane * NodesPerBoard // 1024
	CoresPerNode      = 16                                                   // application cores on the A2
	MiraRacks         = 48
)

// EMONGeneration is the cadence at which the EMON infrastructure produces a
// new generation of power data — the 560 ms "lowest polling interval
// possible" at which the paper's Figure 2 was captured.
const EMONGeneration = 560 * time.Millisecond

// EMONReadCost is the per-collection latency of the EMON API measured by
// the paper ("each collection takes about 1.10 ms").
const EMONReadCost = 1100 * time.Microsecond

// BPMEfficiency is the AC->48VDC conversion efficiency of the bulk power
// modules: input power observed in the environmental database exceeds the
// node cards' output-side draw by this factor.
const BPMEfficiency = 0.94

// domainModels holds the calibrated per-domain power models for one node
// card (32 nodes). Idle sums to ~740 W and the MMPS workload lands around
// 1.6 kW, matching the magnitude of the paper's Figures 1–2.
func domainModels() [NumDomains]power.DomainModel {
	return [NumDomains]power.DomainModel{
		ChipCore:     {Name: "Chip Core", IdleW: 320, DynamicW: 680, WCompute: 0.9, WNetwork: 0.1, NoiseFrac: 0.008},
		DRAM:         {Name: "DRAM", IdleW: 180, DynamicW: 260, WMemory: 1, NoiseFrac: 0.008},
		LinkChipCore: {Name: "Link Chip Core", IdleW: 50, DynamicW: 60, WNetwork: 1, NoiseFrac: 0.01},
		HSSNetwork:   {Name: "HSS Network", IdleW: 70, DynamicW: 130, WNetwork: 1, NoiseFrac: 0.01},
		Optics:       {Name: "Optics", IdleW: 60, DynamicW: 60, WNetwork: 1, NoiseFrac: 0.01},
		PCIExpress:   {Name: "PCI Express", IdleW: 35, DynamicW: 25, WPCIe: 0.8, WNetwork: 0.2, NoiseFrac: 0.012},
		SRAM:         {Name: "SRAM", IdleW: 25, DynamicW: 25, WCompute: 0.6, WNetwork: 0.4, NoiseFrac: 0.012},
	}
}

// domainRails gives the supply rail for each domain so EMON can report
// voltage and current ("MonEQ ... read[s] the individual voltage and
// current data points for each of the 7 BG/Q domains").
func domainRails() [NumDomains]power.Rail {
	return [NumDomains]power.Rail{
		ChipCore:     {NominalV: 0.9, DroopFrac: 0.03, MaxW: 1000},
		DRAM:         {NominalV: 1.35, DroopFrac: 0.02, MaxW: 440},
		LinkChipCore: {NominalV: 1.0, DroopFrac: 0.02, MaxW: 110},
		HSSNetwork:   {NominalV: 1.2, DroopFrac: 0.02, MaxW: 200},
		Optics:       {NominalV: 3.3, DroopFrac: 0.01, MaxW: 120},
		PCIExpress:   {NominalV: 12, DroopFrac: 0.01, MaxW: 60},
		SRAM:         {NominalV: 0.9, DroopFrac: 0.02, MaxW: 50},
	}
}

// Config describes a simulated Blue Gene/Q machine.
type Config struct {
	Racks int
	Seed  uint64
}

// Machine is a simulated Blue Gene/Q system.
type Machine struct {
	cfg   Config
	racks []*Rack
	cards []*NodeCard // flattened, stable order
}

// Rack is one BG/Q rack: two midplanes of 16 node boards, eight link
// cards, and two service cards.
type Rack struct {
	Index        int
	Name         string
	Midplanes    []*Midplane
	LinkCards    []*LinkCard
	ServiceCards []*ServiceCard
}

// Midplane holds 16 node boards.
type Midplane struct {
	Index  int
	Name   string
	Boards []*NodeCard
}

// NodeCard is one node board: 32 compute nodes sharing one EMON measurement
// point with 7 power domains.
type NodeCard struct {
	name    string
	machine *Machine
	models  [NumDomains]power.DomainModel
	rails   [NumDomains]power.Rail
	seed    uint64

	// job assignment
	job      workload.Workload
	jobStart time.Duration
}

// New builds a machine. It panics on a non-positive rack count.
func New(cfg Config) *Machine {
	if cfg.Racks <= 0 {
		panic("bgq: machine needs at least one rack")
	}
	m := &Machine{cfg: cfg}
	for r := 0; r < cfg.Racks; r++ {
		rack := &Rack{Index: r, Name: fmt.Sprintf("R%02d", r)}
		for mp := 0; mp < MidplanesPerRack; mp++ {
			mid := &Midplane{Index: mp, Name: fmt.Sprintf("%s-M%d", rack.Name, mp)}
			for b := 0; b < BoardsPerMidplane; b++ {
				card := &NodeCard{
					name:    fmt.Sprintf("%s-N%02d", mid.Name, b),
					machine: m,
					models:  domainModels(),
					rails:   domainRails(),
				}
				// Stable per-card seed derived from machine seed and name.
				card.seed = simrand.New(cfg.Seed).Split(card.name).Uint64()
				mid.Boards = append(mid.Boards, card)
				m.cards = append(m.cards, card)
			}
			rack.Midplanes = append(rack.Midplanes, mid)
		}
		m.buildInfrastructure(rack)
		m.racks = append(m.racks, rack)
	}
	return m
}

// Racks returns the rack list.
func (m *Machine) Racks() []*Rack { return m.racks }

// NodeCards returns every node card in stable order.
func (m *Machine) NodeCards() []*NodeCard { return m.cards }

// Nodes reports the total compute-node count.
func (m *Machine) Nodes() int { return len(m.cards) * NodesPerBoard }

// Run assigns a workload to the given node cards starting at the given
// simulated time. A nil card list assigns to the whole machine. Re-running
// on a busy card replaces its assignment (the scheduler's problem, not
// ours).
func (m *Machine) Run(w workload.Workload, start time.Duration, cards ...*NodeCard) {
	if len(cards) == 0 {
		cards = m.cards
	}
	for _, c := range cards {
		c.job = w
		c.jobStart = start
	}
}

// Name reports the node card's location string, e.g. "R00-M0-N04".
func (nc *NodeCard) Name() string { return nc.name }

// activityAt reports the card's workload activity at simulated time t.
func (nc *NodeCard) activityAt(t time.Duration) workload.Activity {
	if nc.job == nil {
		return workload.Activity{}
	}
	return nc.job.ActivityAt(t - nc.jobStart)
}

// genIndex quantizes t to an EMON generation index for the given domain.
// Domains are sampled at staggered offsets within the generation window —
// the paper: "the underlying power measurement infrastructure does not
// measure all domains at the exact same time".
func genIndex(t time.Duration, d Domain) (idx int64, at time.Duration) {
	skew := time.Duration(int64(d)) * (EMONGeneration / 16)
	shifted := t - skew
	if shifted < 0 {
		return 0, skew
	}
	idx = int64(shifted / EMONGeneration)
	at = time.Duration(idx)*EMONGeneration + skew
	return idx, at
}

// DomainPower returns the true (output-side) draw of one domain during the
// generation in effect at time t, plus the generation timestamp. The value
// is deterministic for a given (machine seed, card, domain, generation).
func (nc *NodeCard) DomainPower(d Domain, t time.Duration) (watts float64, generation time.Duration) {
	idx, at := genIndex(t, d)
	rng := simrand.New(nc.seed ^ uint64(d)<<56 ^ uint64(idx))
	watts = nc.models[d].Power(nc.activityAt(at), rng)
	return watts, at
}

// DomainVI returns voltage and current of a domain's rail at time t,
// consistent with DomainPower (V*I == W).
func (nc *NodeCard) DomainVI(d Domain, t time.Duration) (volts, amps float64, generation time.Duration) {
	w, gen := nc.DomainPower(d, t)
	v, a := nc.rails[d].VI(w)
	return v, a, gen
}

// TotalPower sums all domains' output-side power at time t.
func (nc *NodeCard) TotalPower(t time.Duration) float64 {
	var sum float64
	for _, d := range Domains() {
		w, _ := nc.DomainPower(d, t)
		sum += w
	}
	return sum
}
