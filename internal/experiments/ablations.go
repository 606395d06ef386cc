package experiments

import (
	"fmt"
	"math"
	"time"

	"envmon/internal/bgq"
	"envmon/internal/mic"
	"envmon/internal/moneq"
	"envmon/internal/rapl"
	"envmon/internal/scif"
	"envmon/internal/simclock"
	"envmon/internal/workload"
)

func init() {
	register("ablation-msr-vs-perf", "RAPL access path: direct MSR vs perf_event", runAblationMSRvsPerf)
	register("ablation-rapl-wrap", "RAPL 32-bit counter wraparound at long sampling intervals", runAblationWrap)
	register("ablation-scif-batch", "Xeon Phi in-band queries: batched snapshot vs per-metric calls", runAblationBatch)
	register("ablation-moneq-interval", "MonEQ overhead across polling intervals", runAblationInterval)
}

// runAblationMSRvsPerf compares the two RAPL access paths: identical data,
// different per-query cost and wraparound behavior.
func runAblationMSRvsPerf(seed uint64) Result {
	r := Result{
		ID:      "ablation-msr-vs-perf",
		Title:   "RAPL access path comparison",
		Headers: []string{"Path", "Per-query", "Handles wrap?", "Needs root?", "Kernel"},
	}
	socket := rapl.NewSocket(rapl.Config{Name: "ab1", Seed: seed})
	socket.Run(workload.GaussElim(60*time.Second), 0)
	msrCol := mustBuild(rapl.MSR.Key, socket)
	perf := mustBuild(rapl.Perf.Key, socket)

	// Both paths must report the same power over a common window.
	var msrPower, perfPower float64
	failed := 0
	for _, ts := range []time.Duration{10 * time.Second, 40 * time.Second} {
		rsM, err := msrCol.CollectInto(nil, ts)
		if err != nil {
			failed++
		}
		rsP, err := perf.CollectInto(nil, ts)
		if err != nil {
			failed++
		}
		for _, rd := range rsM {
			if rd.Cap == powerCap {
				msrPower = rd.Value
			}
		}
		for _, rd := range rsP {
			if rd.Cap == powerCap {
				perfPower = rd.Value
			}
		}
	}
	r.Rows = [][]string{
		{"MSR driver", fmt.Sprintf("%.3f ms", msrCol.Cost().Seconds()*1000), "single wrap only", "yes (or chmod a+r)", "any"},
		{"perf_event", fmt.Sprintf("%.3f ms", perf.Cost().Seconds()*1000), "yes (64-bit)", "no", ">= 3.14"},
	}
	r.Checks = append(r.Checks,
		check("perf costs more per query than MSR", perf.Cost() > msrCol.Cost(),
			"%v vs %v (paper's expectation; perf value modeled)", perf.Cost(), msrCol.Cost()),
		check("both paths report the same power", math.Abs(msrPower-perfPower) < 0.5,
			"MSR %.2f W vs perf %.2f W", msrPower, perfPower),
	)
	r.noteSkipped(failed)
	return r
}

// runAblationWrap demonstrates the paper's warning: sampling slower than
// the counter wrap period silently undercounts energy.
func runAblationWrap(seed uint64) Result {
	r := Result{
		ID:      "ablation-rapl-wrap",
		Title:   "Energy measured over one hour at different sampling intervals (idle socket, true ~10 W)",
		Headers: []string{"Sampling interval", "Measured mean power", "Error"},
	}
	wrapAt := rapl.WrapTime(10)
	intervals := []time.Duration{
		10 * time.Second,
		5 * time.Minute,
		wrapAt - 5*time.Minute, // just under the wrap period: modular delta still correct
		wrapAt + time.Minute,   // past the wrap period: a full wrap of energy vanishes
	}
	const horizon = 4 * time.Hour
	var errs []float64
	failed := 0
	for _, iv := range intervals {
		socket := rapl.NewSocket(rapl.Config{Name: "ab2", Seed: seed, UpdatePeriod: 20 * time.Millisecond})
		col := mustBuild(rapl.MSR.Key, socket)
		var joules float64
		var span time.Duration
		for ts := time.Duration(0); ts <= horizon; ts += iv {
			rs, err := col.CollectInto(nil, ts)
			if err != nil {
				failed++
				continue
			}
			for _, rd := range rs {
				if rd.Cap.Component == powerCap.Component && rd.Cap.Metric.String() == "Energy" {
					joules += rd.Value
					span = ts
				}
			}
		}
		mean := joules / span.Seconds()
		errFrac := (mean - 10) / 10
		errs = append(errs, errFrac)
		r.Rows = append(r.Rows, []string{
			iv.String(), fmt.Sprintf("%.2f W", mean), fmt.Sprintf("%+.1f%%", errFrac*100),
		})
	}
	r.Checks = append(r.Checks,
		check("fast sampling is accurate", math.Abs(errs[0]) < 0.02, "%+.2f%% at 10 s", errs[0]*100),
		check("sampling just under the wrap period still accurate",
			math.Abs(errs[2]) < 0.05, "%+.2f%%", errs[2]*100),
		check("sampling past the wrap period grossly undercounts",
			errs[3] < -0.3, "%+.1f%% (the paper's 'erroneous data')", errs[3]*100),
	)
	r.Notes = append(r.Notes, fmt.Sprintf("wrap period at 10 W is %v (32-bit counter, 15.3 µJ units)", wrapAt))
	r.noteSkipped(failed)
	return r
}

// runAblationBatch compares one batched snapshot RPC against twelve
// per-metric RPCs on the Phi's in-band path: the wake cost amortizes.
func runAblationBatch(seed uint64) Result {
	r := Result{
		ID:      "ablation-scif-batch",
		Title:   "In-band collection: one snapshot RPC vs per-metric RPCs",
		Headers: []string{"Strategy", "RPCs", "Total latency", "Card wake time"},
	}
	run := func(calls int) (latency, wake time.Duration) {
		net := scif.NewNetwork(1)
		card := mic.New(mic.Config{Index: 0, Seed: seed})
		card.Run(workload.NoopKernel(time.Minute), 0)
		svc, err := mic.StartSysMgmt(net, 1, card)
		if err != nil {
			panic(err)
		}
		// The vendor constructor: the ablation times the mechanism's own
		// round trips, which a -faults wrapper would hide.
		col := mic.NewInBandCollector(net, svc)
		now := 10 * time.Second
		for i := 0; i < calls; i++ {
			if _, err := col.CollectInto(nil, now); err != nil {
				panic(err)
			}
			latency += col.LastDone() - now
			now = col.LastDone()
		}
		wake = time.Duration(calls) * mic.InBandQueryCost
		return latency, wake
	}
	batchedLat, batchedWake := run(1)
	singleLat, singleWake := run(12)
	r.Rows = [][]string{
		{"batched snapshot", "1", batchedLat.String(), batchedWake.String()},
		{"per-metric calls", "12", singleLat.String(), singleWake.String()},
	}
	r.Checks = append(r.Checks,
		check("batching is ~12x cheaper", singleLat > 11*batchedLat && singleLat < 13*batchedLat,
			"%v vs %v", singleLat, batchedLat),
		check("card disturbance scales with RPC count", singleWake == 12*batchedWake,
			"%v vs %v", singleWake, batchedWake),
	)
	return r
}

// runAblationInterval sweeps MonEQ's polling interval on the BG/Q backend
// and reports the overhead/resolution trade-off.
func runAblationInterval(seed uint64) Result {
	r := Result{
		ID:      "ablation-moneq-interval",
		Title:   "MonEQ collection overhead vs polling interval (BG/Q EMON, 202.7 s app)",
		Headers: []string{"Interval", "Polls", "Collection cost", "Overhead"},
	}
	intervals := []time.Duration{
		560 * time.Millisecond, // hardware minimum
		time.Second,
		5 * time.Second,
		30 * time.Second,
	}
	var overheads []float64
	for _, iv := range intervals {
		row := runTable3Interval(seed, iv)
		frac := row.Collection.Seconds() / row.AppRuntime.Seconds()
		overheads = append(overheads, frac)
		r.Rows = append(r.Rows, []string{
			iv.String(), fmt.Sprintf("%d", int(row.AppRuntime/iv)),
			fmt.Sprintf("%.4f s", row.Collection.Seconds()),
			fmt.Sprintf("%.4f%%", frac*100),
		})
	}
	decreasing := true
	for i := 1; i < len(overheads); i++ {
		if overheads[i] >= overheads[i-1] {
			decreasing = false
		}
	}
	r.Checks = append(r.Checks,
		check("overhead at the default interval ~0.19%",
			math.Abs(overheads[0]-0.0019) < 0.0005, "%.4f%%", overheads[0]*100),
		check("overhead falls monotonically with interval", decreasing,
			"%v", overheads),
	)
	return r
}

// runTable3Interval is RunTable3Scale with a custom polling interval.
func runTable3Interval(seed uint64, interval time.Duration) Table3Row {
	clock := simclock.New()
	machine := bgq.New(bgq.Config{Racks: 1, Seed: seed})
	card := machine.NodeCards()[0]
	machine.Run(workload.FixedRuntime(table3Runtime), 0, card)
	m, err := moneq.Initialize(moneq.Config{
		Clock: clock, Node: card.Name(), Interval: interval,
	}, mustBuild(bgq.EMONAPI.Key, card))
	if err != nil {
		panic(err)
	}
	clock.Advance(table3Runtime)
	rep, err := m.Finalize()
	if err != nil {
		panic(err)
	}
	return Table3Row{
		Nodes: 1, AppRuntime: rep.AppRuntime, Init: rep.InitCost,
		Finalize: rep.FinalizeCost, Collection: rep.CollectionCost, Total: rep.TotalCost,
	}
}
