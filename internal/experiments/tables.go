package experiments

import (
	"fmt"
	"time"

	"envmon/internal/bgq"
	"envmon/internal/core"
	"envmon/internal/ipmb"
	"envmon/internal/mic"
	"envmon/internal/micras"
	"envmon/internal/moneq"
	"envmon/internal/msr"
	"envmon/internal/nvml"
	"envmon/internal/rapl"
	"envmon/internal/scif"
	"envmon/internal/simclock"
	"envmon/internal/workload"
)

func init() {
	register("table1", "Comparison of environmental data available (paper Table I)", runTable1)
	register("table2", "List of available RAPL sensors (paper Table II)", runTable2)
	register("table3", "Time overhead for MonEQ in seconds on Mira (paper Table III)", runTable3)
	register("table4", "Per-query collection cost by mechanism (paper Sections II.A-II.D)", runTable4)
}

// --- Table I ------------------------------------------------------------------

func runTable1(seed uint64) Result {
	r := Result{
		ID:      "table1",
		Title:   "Comparison of environmental data for the Xeon Phi, NVML, Blue Gene/Q, and RAPL",
		Headers: []string{"Group", "Datum", "Xeon Phi", "NVML", "Blue Gene/Q", "RAPL"},
	}
	for _, row := range core.Table1() {
		r.Rows = append(r.Rows, []string{
			row.Group, row.Label,
			row.Support[core.XeonPhi].String(),
			row.Support[core.NVML].String(),
			row.Support[core.BlueGeneQ].String(),
			row.Support[core.RAPL].String(),
		})
	}
	common := core.CommonCapabilities()
	r.Checks = append(r.Checks,
		check("total power is the only universal datum",
			len(common) == 1 && common[0] == core.Capability{Component: core.Total, Metric: core.Power},
			"common capabilities: %v", common),
		check("21 data rows as in the paper", len(r.Rows) == 21, "%d rows", len(r.Rows)),
	)
	r.Notes = append(r.Notes,
		"cell values reconstructed from the paper's prose and vendor documentation; "+
			"the scanned table's check/cross glyphs are not machine-readable")
	return r
}

// --- Table II -----------------------------------------------------------------

func runTable2(seed uint64) Result {
	r := Result{
		ID:      "table2",
		Title:   "List of available RAPL sensors",
		Headers: []string{"Domain", "Description"},
	}
	for _, row := range rapl.Table2() {
		r.Rows = append(r.Rows, []string{row.Name, row.Description})
	}
	// Verify the domains are live, not just documented: a socket must
	// expose a readable energy-status MSR for each.
	s := rapl.NewSocket(rapl.Config{Name: "t2", Seed: seed})
	live := 0
	for _, addr := range []msr.Address{msr.PkgEnergyStatus, msr.PP0EnergyStatus, msr.PP1EnergyStatus, msr.DRAMEnergyStatus} {
		if _, err := s.Registers().Read(addr, time.Second); err == nil {
			live++
		}
	}
	r.Checks = append(r.Checks,
		check("4 domains", len(r.Rows) == 4, "%d rows", len(r.Rows)),
		check("every domain has a live energy-status MSR", live == 4, "%d/4 readable", live),
	)
	return r
}

// --- Table III ----------------------------------------------------------------

// table3Runtime is the paper's toy application runtime (~202.7 s).
const table3Runtime = 202740 * time.Millisecond

// Table3Row holds the measured overhead at one scale.
type Table3Row struct {
	Nodes      int
	AppRuntime time.Duration
	Init       time.Duration
	Finalize   time.Duration
	Collection time.Duration
	Total      time.Duration
}

// RunTable3Scale profiles the fixed-runtime toy application on a BG/Q node
// card with the job sized to nodes, returning the Table III quantities.
func RunTable3Scale(seed uint64, nodes int) Table3Row {
	clock := simclock.New()
	machine := bgq.New(bgq.Config{Name: "mira-sim", Racks: 1, Seed: seed})
	card := machine.NodeCards()[0]
	machine.Run(workload.FixedRuntime(table3Runtime), 0, card)
	m, err := moneq.Initialize(moneq.Config{
		Clock: clock, Node: card.Name(), NumTasks: nodes,
	}, mustBuild(core.BackendKey{Platform: core.BlueGeneQ, Method: "EMON"}, card))
	if err != nil {
		panic(fmt.Sprintf("table3: %v", err)) // programmer error in harness
	}
	clock.Advance(table3Runtime)
	rep, err := m.Finalize()
	if err != nil {
		panic(fmt.Sprintf("table3: %v", err))
	}
	return Table3Row{
		Nodes:      nodes,
		AppRuntime: rep.AppRuntime,
		Init:       rep.InitCost,
		Finalize:   rep.FinalizeCost,
		Collection: rep.CollectionCost,
		Total:      rep.TotalCost,
	}
}

func runTable3(seed uint64) Result {
	r := Result{
		ID:      "table3",
		Title:   "Time overhead for MonEQ in seconds on Mira (202.7 s toy app, 560 ms interval)",
		Headers: []string{"", "32 Nodes", "512 Nodes", "1024 Nodes"},
	}
	scales := []int{32, 512, 1024}
	rows := make([]Table3Row, len(scales))
	for i, n := range scales {
		rows[i] = RunTable3Scale(seed, n)
	}
	secs := func(d time.Duration) string { return fmt.Sprintf("%.4f", d.Seconds()) }
	r.Rows = [][]string{
		{"Application Runtime", fmt.Sprintf("%.2f", rows[0].AppRuntime.Seconds()),
			fmt.Sprintf("%.2f", rows[1].AppRuntime.Seconds()),
			fmt.Sprintf("%.2f", rows[2].AppRuntime.Seconds())},
		{"Time for Initialization", secs(rows[0].Init), secs(rows[1].Init), secs(rows[2].Init)},
		{"Time for Finalize", secs(rows[0].Finalize), secs(rows[1].Finalize), secs(rows[2].Finalize)},
		{"Time for Collection", secs(rows[0].Collection), secs(rows[1].Collection), secs(rows[2].Collection)},
		{"Total Time for MonEQ", secs(rows[0].Total), secs(rows[1].Total), secs(rows[2].Total)},
	}
	collectionEqual := rows[0].Collection == rows[1].Collection && rows[1].Collection == rows[2].Collection
	initSpread := rows[2].Init - rows[0].Init
	overhead := rows[2].Total.Seconds() / rows[2].AppRuntime.Seconds()
	r.Checks = append(r.Checks,
		check("collection identical at every scale", collectionEqual,
			"%.4f / %.4f / %.4f s (paper: 0.3871 at all scales)",
			rows[0].Collection.Seconds(), rows[1].Collection.Seconds(), rows[2].Collection.Seconds()),
		check("initialization ~constant (~3 ms)", initSpread < 2*time.Millisecond && rows[0].Init < 5*time.Millisecond,
			"spread %.4f s", initSpread.Seconds()),
		check("finalize grows with scale", rows[2].Finalize > rows[1].Finalize && rows[1].Finalize >= rows[0].Finalize,
			"%.4f -> %.4f -> %.4f s (paper: 0.151 -> 0.155 -> 0.335)",
			rows[0].Finalize.Seconds(), rows[1].Finalize.Seconds(), rows[2].Finalize.Seconds()),
		check("total overhead ~0.4% at 1K nodes", overhead > 0.002 && overhead < 0.006,
			"%.2f%% (paper: ~0.4%%)", overhead*100),
	)
	return r
}

// --- Table 4 (in-text per-query costs) ----------------------------------------

// QueryCostRow is one mechanism's measured per-query collection cost.
type QueryCostRow struct {
	Platform  string
	Method    string
	PerQuery  time.Duration
	Interval  time.Duration // MonEQ default interval for the mechanism
	Overhead  float64       // per-query cost / polling interval
	PaperCost string
}

// MeasureQueryCosts exercises every mechanism once and reports measured
// per-query costs (for the SCIF and IPMB paths, measured from the simulated
// transaction completion time rather than the nominal constant). All seven
// collectors are built through the core registry.
func MeasureQueryCosts(seed uint64) []QueryCostRow {
	var rows []QueryCostRow
	addRow := func(c core.Collector, measured time.Duration, paper string) {
		rows = append(rows, QueryCostRow{
			Platform:  c.Platform().String(),
			Method:    c.Method(),
			PerQuery:  measured,
			Interval:  c.MinInterval(),
			Overhead:  measured.Seconds() / c.MinInterval().Seconds(),
			PaperCost: paper,
		})
	}

	// BG/Q EMON
	machine := bgq.New(bgq.Config{Name: "t4", Racks: 1, Seed: seed})
	emon := mustBuild(core.BackendKey{Platform: core.BlueGeneQ, Method: "EMON"}, machine.NodeCards()[0])
	addRow(emon, emon.Cost(), "1.10 ms")

	// RAPL via MSR and perf
	socket := rapl.NewSocket(rapl.Config{Name: "t4", Seed: seed})
	msrCol := mustBuild(core.BackendKey{Platform: core.RAPL, Method: "MSR"}, socket)
	addRow(msrCol, msrCol.Cost(), "0.03 ms")
	perf := mustBuild(core.BackendKey{Platform: core.RAPL, Method: "perf"}, socket)
	addRow(perf, perf.Cost(), "untested (expected > MSR)")

	// NVML
	gpu := nvml.NewDevice(nvml.K20Spec(), 0, seed)
	lib := nvml.NewLibrary(gpu)
	lib.Init()
	gpuCol := mustBuild(core.BackendKey{Platform: core.NVML, Method: "NVML"}, lib)
	addRow(gpuCol, gpuCol.Cost(), "1.3 ms")

	// Xeon Phi in-band: measure an actual SCIF round trip.
	net := scif.NewNetwork(1)
	card := mic.New(mic.Config{Index: 0, Seed: seed})
	svc, err := mic.StartSysMgmt(net, 1, card)
	if err != nil {
		panic(err)
	}
	inband := mustBuild(core.BackendKey{Platform: core.XeonPhi, Method: "SysMgmt API"},
		mic.InBandTarget{Net: net, Svc: svc}).(*mic.InBandCollector)
	start := time.Second
	if _, err := inband.CollectInto(nil, start); err != nil {
		panic(err)
	}
	addRow(inband, inband.LastDone()-start, "14.2 ms")

	// Xeon Phi daemon
	daemon := mustBuild(core.BackendKey{Platform: core.XeonPhi, Method: "MICRAS daemon"}, card).(*micras.Collector)
	defer daemon.Close()
	addRow(daemon, daemon.Cost(), "0.04 ms")

	// Xeon Phi out-of-band: measure the IPMB transaction.
	bus := ipmb.NewBus()
	smc := card.SMC(0)
	bus.Attach(smc)
	oob := mustBuild(core.BackendKey{Platform: core.XeonPhi, Method: "SMC/IPMB out-of-band"},
		mic.OOBTarget{BMC: ipmb.NewBMC(bus), SMCAddr: smc.SlaveAddr()}).(*mic.OOBCollector)
	start = 2 * time.Second
	if _, err := oob.CollectInto(nil, start); err != nil {
		panic(err)
	}
	addRow(oob, oob.LastDone()-start, "(not measured in paper)")
	return rows
}

func runTable4(seed uint64) Result {
	r := Result{
		ID:      "table4",
		Title:   "Per-query collection cost by mechanism",
		Headers: []string{"Platform", "Method", "Per-query", "Default interval", "Overhead", "Paper"},
	}
	rows := MeasureQueryCosts(seed)
	byMethod := map[string]time.Duration{}
	for _, row := range rows {
		byMethod[row.Method] = row.PerQuery
		r.Rows = append(r.Rows, []string{
			row.Platform, row.Method,
			fmt.Sprintf("%.3f ms", float64(row.PerQuery.Microseconds())/1000),
			row.Interval.String(),
			fmt.Sprintf("%.2f%%", row.Overhead*100),
			row.PaperCost,
		})
	}
	r.Checks = append(r.Checks,
		check("MSR is the fastest mechanism",
			byMethod["MSR"] <= byMethod["MICRAS daemon"] &&
				byMethod["MSR"] < byMethod["EMON"] &&
				byMethod["MSR"] < byMethod["NVML"] &&
				byMethod["MSR"] < byMethod["SysMgmt API"],
			"MSR %.3f ms", byMethod["MSR"].Seconds()*1000),
		check("daemon ~= MSR (same implementation)",
			byMethod["MICRAS daemon"] < 2*byMethod["MSR"]+50*time.Microsecond,
			"daemon %.3f ms vs MSR %.3f ms",
			byMethod["MICRAS daemon"].Seconds()*1000, byMethod["MSR"].Seconds()*1000),
		check("ordering MSR~daemon << EMON~NVML << SysMgmt API",
			byMethod["EMON"] > 10*byMethod["MSR"] &&
				byMethod["NVML"] > byMethod["EMON"] &&
				byMethod["SysMgmt API"] > 10*byMethod["NVML"],
			"EMON %.2f, NVML %.2f, API %.2f ms",
			byMethod["EMON"].Seconds()*1000, byMethod["NVML"].Seconds()*1000,
			byMethod["SysMgmt API"].Seconds()*1000),
		check("SysMgmt API ~14.2 ms ('staggering')",
			byMethod["SysMgmt API"] >= 14*time.Millisecond && byMethod["SysMgmt API"] <= 15*time.Millisecond,
			"%.3f ms", byMethod["SysMgmt API"].Seconds()*1000),
	)
	r.Notes = append(r.Notes,
		"perf cost is a modeled assumption (paper lacked a >=3.14 kernel); see EXPERIMENTS.md")
	return r
}
