package bgq

import (
	"math"
	"testing"
	"time"

	"envmon/internal/envdb"
	"envmon/internal/simclock"
	"envmon/internal/stats"
	"envmon/internal/workload"
)

// TestBPMAndEMONAgree cross-validates the two collection paths the paper
// compares in Figures 1 and 2: "the power consumption of the node card
// matches that of the data collected at the BPM in terms of total power
// consumption". Over a steady window, the environmental database's
// output-side mean must match the EMON node-card total, and the input-side
// mean must exceed it by exactly the conversion efficiency.
func TestBPMAndEMONAgree(t *testing.T) {
	clock := simclock.New()
	m := testMachine()
	card := m.NodeCards()[0]
	m.Run(workload.MMPS(40*time.Minute), 0, card)

	db := envdb.New()
	poller, err := m.AttachEnvironmentalPoller(db, 120*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	poller.Start(clock)

	// EMON view: collect the node-card total every generation over the
	// steady window, interleaved with DB polling on the same clock.
	emon := card.EMON()
	var emonTotals []float64
	collect := clock.Every(EMONGeneration, func(now time.Duration) {
		if now < 5*time.Minute || now > 35*time.Minute {
			return
		}
		var sum float64
		for _, r := range readDomains(t, emon, now) {
			sum += r.Watts
		}
		emonTotals = append(emonTotals, sum)
	})
	defer collect.Stop()
	clock.Advance(40 * time.Minute)

	window := func(sensor string) []float64 {
		var out []float64
		for _, rec := range db.Query(envdb.Location(card.Name()), sensor, 5*time.Minute, 35*time.Minute) {
			out = append(out, rec.Value)
		}
		return out
	}
	outMean := stats.Mean(window("output_power"))
	inMean := stats.Mean(window("input_power"))
	emonMean := stats.Mean(emonTotals)

	if rel := math.Abs(outMean-emonMean) / emonMean; rel > 0.01 {
		t.Errorf("BPM output %0.f W vs EMON total %.0f W: %.2f%% apart", outMean, emonMean, rel*100)
	}
	if ratio := outMean / inMean; math.Abs(ratio-BPMEfficiency) > 0.001 {
		t.Errorf("output/input ratio = %.4f, want BPM efficiency %.2f", ratio, BPMEfficiency)
	}
}
