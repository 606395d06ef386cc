// bgq-mmps reproduces the paper's Figures 1 and 2 side by side: the same
// MMPS interconnect benchmark on a Blue Gene/Q node card, observed through
// both collection paths —
//
//   - the environmental database, fed by the bulk power modules at the
//     facility's ~4-minute polling interval (Fig. 1): coarse, but it sees
//     the idle machine before and after the job;
//   - MonEQ over the EMON API at the 560 ms hardware minimum (Fig. 2):
//     ~430x denser, split across the 7 power domains, but blind outside
//     the application's own lifetime.
//
// The example prints both series as ASCII charts and quantifies the
// density and coverage differences the paper highlights.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"envmon/internal/bgq"
	"envmon/internal/core"
	"envmon/internal/envdb"
	"envmon/internal/moneq"
	"envmon/internal/report"
	"envmon/internal/simclock"
	"envmon/internal/trace"
	"envmon/internal/workload"
)

func main() {
	const (
		idleBefore = 10 * time.Minute
		jobLen     = 25 * time.Minute
		idleAfter  = 10 * time.Minute
	)
	clock := simclock.New()
	machine := bgq.New(bgq.Config{Racks: 1, Seed: 42})
	card := machine.NodeCards()[0]

	// Path 1: the environmental database, always on.
	db := envdb.New()
	poller, err := machine.AttachEnvironmentalPoller(db, envdb.DefaultPollInterval)
	if err != nil {
		log.Fatal(err)
	}
	poller.Start(clock)

	// The job arrives after 10 minutes of idle.
	machine.Run(workload.MMPS(jobLen), idleBefore, card)

	// Path 2: MonEQ inside the application (starts with the job).
	var mon *moneq.Monitor
	clock.At(idleBefore, func(time.Duration) {
		mon, err = moneq.Initialize(moneq.Config{Clock: clock, Node: card.Name()}, card.EMON())
		if err != nil {
			log.Fatal(err)
		}
	})
	var rep moneq.Report
	clock.At(idleBefore+jobLen, func(time.Duration) {
		rep, err = mon.Finalize()
		if err != nil {
			log.Fatal(err)
		}
	})

	clock.Advance(idleBefore + jobLen + idleAfter)

	// Figure 1 view: BPM input power from the database.
	bpm := trace.NewSeries("BPM Input Power", "W")
	for _, rec := range db.Query(envdb.Location(card.Name()), "input_power", 0, clock.Now()+time.Second) {
		bpm.MustAppend(rec.Time, rec.Value)
	}
	fmt.Println("Figure 1 — the environmental database view (idle shoulders visible):")
	if err := report.Chart(os.Stdout, 100, 12, bpm); err != nil {
		log.Fatal(err)
	}

	// Figure 2 view: MonEQ's 7 domains.
	total := mon.Series("EMON", core.Capability{Component: core.Total, Metric: core.Power})
	chip := mon.Series("EMON", core.Capability{Component: core.Processor, Metric: core.Power})
	dram := mon.Series("EMON", core.Capability{Component: core.MainMemory, Metric: core.Power})
	fmt.Println("\nFigure 2 — the MonEQ/EMON view (560 ms, per domain; no idle shoulders):")
	if err := report.Chart(os.Stdout, 100, 12, total, chip, dram); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nBPM samples: %d (one per %v)\n", bpm.Len(), envdb.DefaultPollInterval)
	fmt.Printf("MonEQ samples: %d (one per %v) — %.0fx denser\n",
		total.Len(), rep.Interval, float64(total.Len())/float64(bpm.Len())*
			float64(idleBefore+jobLen+idleAfter)/float64(jobLen))
	fmt.Printf("MonEQ collection overhead: %v over %v (%.2f%%)\n",
		rep.CollectionCost, rep.AppRuntime, 100*rep.CollectionCost.Seconds()/rep.AppRuntime.Seconds())
	fmt.Printf("node-card granularity: the card serves %d nodes; per-node data does not exist\n",
		bgq.NodesPerBoard)
}
