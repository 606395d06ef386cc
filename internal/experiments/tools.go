package experiments

import (
	"fmt"
	"time"

	"envmon/internal/bgq"
	"envmon/internal/envdb"
	"envmon/internal/mic"
	"envmon/internal/msr"
	"envmon/internal/nvml"
	"envmon/internal/papi"
	"envmon/internal/rapl"
	"envmon/internal/simclock"
	"envmon/internal/tau"
	"envmon/internal/workload"
)

func init() {
	register("table5-tools", "Power-profiling tool comparison (paper Section III)", runTable5Tools)
	register("ablation-envdb-capacity", "Environmental database ingest capacity vs polling interval", runAblationEnvdbCapacity)
}

// runTable5Tools regenerates the paper's Section III tool survey as a
// platform-support matrix, and proves the overlapping cells by actually
// running the in-repo implementations (MonEQ-Go and the PAPI-style
// component API) against each platform they claim.
func runTable5Tools(seed uint64) Result {
	r := Result{
		ID:      "table5-tools",
		Title:   "Which power-profiling tool supports which mechanism (Section III)",
		Headers: []string{"Tool", "BG/Q", "RAPL", "NVML", "Xeon Phi", "Notes"},
	}
	// The survey as the paper states it.
	r.Rows = [][]string{
		{"MonEQ (this work)", "yes", "yes", "yes", "yes", "extended in the paper to all four"},
		{"PAPI", "no", "yes", "yes", "yes", "power support recently added"},
		{"TAU >= 2.23", "no", "yes (MSR driver)", "no", "no", "RAPL only"},
		{"PowerPack 3.0", "no", "no", "no", "no", "external meters; no new-generation interfaces"},
	}

	// Prove the MonEQ row: one Collect on each platform's collector.
	machine := bgq.New(bgq.Config{Racks: 1, Seed: seed})
	emon := mustBuild(bgq.EMONAPI.Key, machine.NodeCards()[0])
	emonOK := false
	if rs, err := emon.CollectInto(nil, time.Second); err == nil && len(rs) > 0 {
		emonOK = true
	}

	// Prove the PAPI row: an event set touching rapl, nvml, micpower.
	socket := rapl.NewSocket(rapl.Config{Name: "t5", Seed: seed})
	socket.Run(workload.GaussElim(30*time.Second), 0)
	gpu := nvml.NewDevice(nvml.K20Spec(), 0, seed)
	gpu.Run(workload.NoopKernel(30*time.Second), 0)
	card := mic.New(mic.Config{Index: 0, Seed: seed})
	card.Run(workload.NoopKernel(30*time.Second), 0)
	lib, err := papi.NewLibrary(
		papi.NewRAPLComponent(socket),
		papi.NewNVMLComponent(gpu),
		papi.NewMICComponent(card),
	)
	if err != nil {
		panic(err)
	}
	if err := lib.Init(); err != nil {
		panic(err)
	}
	es, err := lib.CreateEventSet()
	if err != nil {
		panic(err)
	}
	for _, e := range []string{
		"rapl:::PACKAGE_ENERGY:PACKAGE0",
		"nvml:::Tesla_K20:power",
		"micpower:::tot0",
	} {
		if err := es.AddEvent(e); err != nil {
			panic(err)
		}
	}
	if err := es.Start(time.Second); err != nil {
		panic(err)
	}
	vals, err := es.Stop(11 * time.Second)
	if err != nil {
		panic(err)
	}
	papiOK := len(vals) == 3 && vals[0] > 0 && vals[1] > 0 && vals[2] > 0

	// Prove the TAU row: a timer-scoped RAPL profile on the same socket.
	drv := socket.Driver(1)
	drv.Load()
	dev, err := drv.Open(0, msr.Root)
	if err != nil {
		panic(err)
	}
	prof, err := tau.NewProfiler(dev)
	if err != nil {
		panic(err)
	}
	if err := prof.Start("solve", 12*time.Second); err != nil {
		panic(err)
	}
	if err := prof.Stop("solve", 22*time.Second); err != nil {
		panic(err)
	}
	timers, err := prof.Profile()
	if err != nil {
		panic(err)
	}
	tauOK := len(timers) == 1 && timers[0].MeanPower() > 30

	r.Checks = append(r.Checks,
		check("MonEQ collects on BG/Q (unique among the tools)", emonOK, "EMON Collect succeeded"),
		check("PAPI-style API covers RAPL+NVML+Phi", papiOK,
			"PKG %.0f J, board %.1f W, card %.1f W",
			float64(vals[0])/1e9, float64(vals[1])/1000, float64(vals[2])/1e6),
		check("TAU-style timer profiling works over the MSR driver", tauOK,
			"solve: %.1f W mean over 10 s", timers[0].MeanPower()),
		check("only MonEQ claims all four platforms", r.Rows[0][1] == "yes" && r.Rows[1][1] == "no",
			"survey matrix as stated in Section III"),
	)
	r.Notes = append(r.Notes,
		"TAU and PowerPack rows are survey data from the paper's text; MonEQ and PAPI rows are executed against the simulation")
	return r
}

// runAblationEnvdbCapacity substantiates the paper's stated reason for the
// 60-second minimum polling interval: "while a shorter polling interval
// would be ideal, the resulting volume of data alone would exceed the
// server's processing capacity". We give the database a fixed ingest
// budget sized for a 48-rack machine at the 60 s floor and show what
// sub-minimum polling would do to it.
func runAblationEnvdbCapacity(seed uint64) Result {
	r := Result{
		ID:      "ablation-envdb-capacity",
		Title:   "Environmental database ingest at and below the 60 s polling floor (1 rack)",
		Headers: []string{"Interval", "Records offered/s", "Stored", "Dropped"},
	}
	// Budget: a Mira-scale DB ingests ~48 racks x 36 sources x 4+4 records
	// per 60 s ~= 230/s. Per rack that is ~4.8/s; give headroom to 6/s.
	const perRackBudget = 6.0

	type outcome struct {
		interval time.Duration
		offered  float64
		stored   int
		dropped  int
	}
	var outcomes []outcome
	for _, interval := range []time.Duration{240 * time.Second, 60 * time.Second, 5 * time.Second} {
		clock := simclock.New()
		machine := bgq.New(bgq.Config{Racks: 1, Seed: seed})
		db := envdb.NewWithCapacity(perRackBudget)
		// Sub-minimum intervals cannot go through the validated poller —
		// that is the interface's whole point — so drive sources directly
		// to show what the validation prevents.
		var sources []envdb.Source
		for _, nc := range machine.NodeCards() {
			sources = append(sources, nc.BulkPower())
		}
		iv := interval
		clock.Every(iv, func(now time.Duration) {
			for _, src := range sources {
				for _, rec := range src.Sample(now) {
					db.Insert(rec)
				}
			}
		})
		clock.Advance(30 * time.Minute)
		offered := float64(db.Len()+db.Dropped()) / (30 * 60)
		outcomes = append(outcomes, outcome{iv, offered, db.Len(), db.Dropped()})
		r.Rows = append(r.Rows, []string{
			iv.String(), fmt.Sprintf("%.2f", offered),
			fmt.Sprintf("%d", db.Len()), fmt.Sprintf("%d", db.Dropped()),
		})
	}
	r.Checks = append(r.Checks,
		check("default interval fits comfortably", outcomes[0].dropped == 0,
			"%d dropped at %v", outcomes[0].dropped, outcomes[0].interval),
		check("60 s floor fits", outcomes[1].dropped == 0,
			"%d dropped at %v", outcomes[1].dropped, outcomes[1].interval),
		check("sub-minimum polling overwhelms the server", outcomes[2].dropped > outcomes[2].stored,
			"%d dropped vs %d stored at %v", outcomes[2].dropped, outcomes[2].stored, outcomes[2].interval),
	)
	r.Notes = append(r.Notes,
		"envdb.NewPoller refuses intervals below 60 s; this ablation bypasses it deliberately to show why the floor exists")
	return r
}
