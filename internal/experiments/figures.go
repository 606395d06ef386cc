package experiments

import (
	"fmt"
	"math"
	"time"

	"envmon/internal/bgq"
	"envmon/internal/cluster"
	"envmon/internal/core"
	"envmon/internal/envdb"
	"envmon/internal/ipmb"
	"envmon/internal/mic"
	"envmon/internal/micras"
	"envmon/internal/moneq"
	"envmon/internal/nvml"
	"envmon/internal/rapl"
	"envmon/internal/scif"
	"envmon/internal/simclock"
	"envmon/internal/stats"
	"envmon/internal/trace"
	"envmon/internal/workload"
)

func init() {
	register("fig1", "Power at the bulk power supplies, MMPS via environmental database (paper Fig. 1)", runFig1)
	register("fig2", "MonEQ 7-domain power at 560 ms, MMPS (paper Fig. 2)", runFig2)
	register("fig3", "RAPL package power, Gaussian elimination at 100 ms (paper Fig. 3)", runFig3)
	register("fig4", "NVML power, NOOP kernel on a K20 at 100 ms (paper Fig. 4)", runFig4)
	register("fig5", "NVML power and temperature, vector add (paper Fig. 5)", runFig5)
	register("fig6", "Xeon Phi control-panel architecture paths (paper Fig. 6)", runFig6)
	register("fig7", "Boxplot of Phi power: SysMgmt API vs MICRAS daemon (paper Fig. 7)", runFig7)
	register("fig8", "Sum power, Gaussian elimination on 128 Xeon Phis (paper Fig. 8)", runFig8)
}

// powerCap is the total-power capability key every collector emits.
var powerCap = core.Capability{Component: core.Total, Metric: core.Power}

// mustBuild constructs a collector through the backend registry; the
// experiments only ever ask for keys the vendor packages register, so a
// failure is a harness programming error.
func mustBuild(key core.BackendKey, target any) core.Collector {
	c, err := core.Build(key, target)
	if err != nil {
		panic(err)
	}
	return c
}

// --- Figure 1 -----------------------------------------------------------------

func runFig1(seed uint64) Result {
	r := Result{ID: "fig1", Title: "BPM input power for MMPS, sampled by the environmental database"}
	clock := simclock.New()
	machine := bgq.New(bgq.Config{Racks: 1, Seed: seed})
	db := envdb.New()
	poller, err := machine.AttachEnvironmentalPoller(db, envdb.DefaultPollInterval)
	if err != nil {
		panic(err)
	}
	poller.Start(clock)

	card := machine.NodeCards()[0]
	const (
		idleBefore = 10 * time.Minute
		jobLen     = 35 * time.Minute
		idleAfter  = 15 * time.Minute
	)
	machine.Run(workload.MMPS(jobLen), idleBefore, card)
	clock.Advance(idleBefore + jobLen + idleAfter)

	total := idleBefore + jobLen + idleAfter
	recs := db.Query(envdb.Location(card.Name()), "input_power", 0, total+time.Second)
	s := trace.NewSeries("Input Power", "W")
	for _, rec := range recs {
		s.MustAppend(rec.Time, rec.Value)
	}
	r.Series = []*trace.Series{s}

	// Shape checks: idle shoulders visible, plateau at ~1.7 kW, coarse
	// sampling (one point per ~4 minutes).
	first, _ := s.At(envdb.DefaultPollInterval)
	plateau := s.Clip(idleBefore+5*time.Minute, idleBefore+jobLen-5*time.Minute).MeanValue()
	last := s.Samples[s.Len()-1].V
	r.Checks = append(r.Checks,
		check("idle period before job observable", first < 1000, "first sample %.0f W", first),
		check("idle period after job observable", last < 1000, "last sample %.0f W", last),
		check("loaded plateau ~1.7 kW", plateau > 1400 && plateau < 2000, "plateau %.0f W", plateau),
		check("coarse sampling (~4 min polls)", s.Len() == int(total/envdb.DefaultPollInterval),
			"%d samples over %v", s.Len(), total),
	)
	r.Notes = append(r.Notes, "environmental database polls at the paper's ~4 minute average interval")
	return r
}

// --- Figure 2 -----------------------------------------------------------------

func runFig2(seed uint64) Result {
	r := Result{ID: "fig2", Title: "MonEQ per-domain power for MMPS at 560 ms"}
	clock := simclock.New()
	machine := bgq.New(bgq.Config{Racks: 1, Seed: seed})
	card := machine.NodeCards()[0]
	const jobLen = 25 * time.Minute
	machine.Run(workload.MMPS(jobLen), 0, card)

	m, err := moneq.Initialize(moneq.Config{Clock: clock, Node: card.Name()},
		mustBuild(bgq.EMONAPI.Key, card))
	if err != nil {
		panic(err)
	}
	clock.Advance(jobLen)
	rep, err := m.Finalize()
	if err != nil {
		panic(err)
	}

	// Domain series in the paper's legend order, plus the node-card total.
	var domainSeries []*trace.Series
	for _, d := range bgq.Domains() {
		comp := map[bgq.Domain]core.Component{
			bgq.ChipCore: core.Processor, bgq.DRAM: core.MainMemory,
			bgq.PCIExpress: core.PCIExpress, bgq.SRAM: core.Die,
		}[d]
		if comp == 0 && d != bgq.ChipCore {
			comp = core.Board
		}
		s := m.Series("EMON", core.Capability{Component: comp, Metric: core.Power})
		if s != nil {
			// Board maps three domains to one series name; only add once.
			dup := false
			for _, have := range domainSeries {
				if have == s {
					dup = true
				}
			}
			if !dup {
				s2 := *s
				s2.Name = d.String()
				domainSeries = append(domainSeries, &s2)
			}
		}
	}
	total := m.Series("EMON", powerCap)
	total2 := *total
	total2.Name = "Node Card Power"
	r.Series = append([]*trace.Series{&total2}, domainSeries...)

	expectedPolls := int(jobLen / bgq.EMONGeneration)
	envdbPoints := int(jobLen / envdb.DefaultPollInterval)
	plateau := total.Clip(2*time.Minute, jobLen-2*time.Minute).MeanValue()
	r.Checks = append(r.Checks,
		check("no idle shoulders (collected at run time)", total.Samples[0].V > 1200,
			"first sample %.0f W", total.Samples[0].V),
		check("many more points than the BPM view", total.Len() > 50*envdbPoints,
			"%d MonEQ samples vs %d DB samples", total.Len(), envdbPoints),
		check("560 ms cadence", rep.Polls == expectedPolls, "%d polls", rep.Polls),
		check("total matches BPM output magnitude", plateau > 1400 && plateau < 2000,
			"plateau %.0f W", plateau),
		check("collection overhead ~0.19%", rep.CollectionCost.Seconds()/rep.AppRuntime.Seconds() > 0.0015 &&
			rep.CollectionCost.Seconds()/rep.AppRuntime.Seconds() < 0.0025,
			"%.3f%%", 100*rep.CollectionCost.Seconds()/rep.AppRuntime.Seconds()),
	)
	return r
}

// --- Figure 3 -----------------------------------------------------------------

func runFig3(seed uint64) Result {
	r := Result{ID: "fig3", Title: "RAPL package power, Gaussian elimination at 100 ms, idle shoulders"}
	clock := simclock.New()
	socket := rapl.NewSocket(rapl.Config{Name: "fig3", Seed: seed})
	const (
		lead = 5 * time.Second
		comp = 55 * time.Second
		tail = 10 * time.Second
	)
	socket.Run(workload.GaussElim(comp), lead)

	col := mustBuild(rapl.MSR.Key, socket)
	m, err := moneq.Initialize(moneq.Config{Clock: clock, Interval: 100 * time.Millisecond}, col)
	if err != nil {
		panic(err)
	}
	clock.Advance(lead + comp + tail)
	if _, err := m.Finalize(); err != nil {
		panic(err)
	}
	s := m.Series("MSR", powerCap)
	s2 := *s
	s2.Name = "PKG Power"
	r.Series = []*trace.Series{&s2}

	idleHead := s.Clip(0, lead-time.Second).MeanValue()
	plateauSeries := s.Clip(lead+5*time.Second, lead+comp-5*time.Second)
	plateau := plateauSeries.MeanValue()
	idleTail := s.Clip(lead+comp+2*time.Second, lead+comp+tail).MeanValue()

	// count rhythmic dips: samples below plateau-3W inside the compute window
	dips := 0
	inDip := false
	var dipDepth []float64
	for _, smp := range plateauSeries.Samples {
		if smp.V < plateau-3 {
			if !inDip {
				dips++
				inDip = true
			}
			dipDepth = append(dipDepth, plateau-smp.V)
		} else {
			inDip = false
		}
	}
	meanDip := stats.Mean(dipDepth)
	// Rhythm period via autocorrelation: at 100 ms sampling a 5 s cadence
	// is a dominant lag of ~50 samples.
	period := stats.DominantPeriod(plateauSeries.Values(), 20, 100)
	r.Checks = append(r.Checks,
		check("idle capture before execution", idleHead < 15, "head %.1f W", idleHead),
		check("idle capture after execution", idleTail < 15, "tail %.1f W", idleTail),
		check("loaded package ~50 W", plateau > 40 && plateau < 58, "plateau %.1f W", plateau),
		check("rhythmic drops present (~every 5 s)", dips >= 6 && dips <= 12,
			"%d dips over %v", dips, comp-10*time.Second),
		check("drop depth ~5 W", meanDip > 3 && meanDip < 8, "mean dip %.1f W", meanDip),
		check("dominant rhythm period ~5 s (autocorrelation)", period >= 45 && period <= 55,
			"lag %d samples = %.1f s", period, float64(period)*0.1),
	)
	return r
}

// --- Figure 4 -----------------------------------------------------------------

func runFig4(seed uint64) Result {
	r := Result{ID: "fig4", Title: "NVML power, NOOP workload on a K20 at 100 ms"}
	clock := simclock.New()
	gpu := nvml.NewDevice(nvml.K20Spec(), 0, seed)
	gpu.Run(workload.NoopKernel(60*time.Second), 0)
	lib := nvml.NewLibrary(gpu)
	lib.Init()
	col := mustBuild(nvml.API.Key, nvml.Target{Lib: lib})
	m, err := moneq.Initialize(moneq.Config{Clock: clock, Interval: 100 * time.Millisecond}, col)
	if err != nil {
		panic(err)
	}
	clock.Advance(12500 * time.Millisecond) // the paper's 12.5 s x-axis
	if _, err := m.Finalize(); err != nil {
		panic(err)
	}
	s := m.Series("NVML", powerCap)
	s2 := *s
	s2.Name = "Board Power"
	r.Series = []*trace.Series{&s2}

	early := s.Clip(0, time.Second).MeanValue()
	at3s := s.Clip(2500*time.Millisecond, 3500*time.Millisecond).MeanValue()
	plateau := s.Clip(8*time.Second, 12*time.Second).MeanValue()
	r.Checks = append(r.Checks,
		check("gradual increase (not a step)", early < at3s && at3s < plateau+1,
			"%.1f -> %.1f -> %.1f W", early, at3s, plateau),
		check("levels off after ~5 s", math.Abs(s.Clip(6*time.Second, 8*time.Second).MeanValue()-plateau) < 2,
			"6-8s mean %.1f vs plateau %.1f W", s.Clip(6*time.Second, 8*time.Second).MeanValue(), plateau),
		check("modest noop plateau (~50-60 W)", plateau > 46 && plateau < 70, "plateau %.1f W", plateau),
		check("jump not severe (contrast with other devices)", plateau-early < 30,
			"rise %.1f W over 12.5 s", plateau-early),
	)
	return r
}

// --- Figure 5 -----------------------------------------------------------------

func runFig5(seed uint64) Result {
	r := Result{ID: "fig5", Title: "NVML power and temperature, vector add workload"}
	clock := simclock.New()
	gpu := nvml.NewDevice(nvml.K20Spec(), 0, seed)
	const (
		hostGen = 10 * time.Second
		comp    = 80 * time.Second
	)
	w := workload.VectorAdd(hostGen, comp)
	gpu.Run(w, 0)
	lib := nvml.NewLibrary(gpu)
	lib.Init()
	col := mustBuild(nvml.API.Key, nvml.Target{Lib: lib})
	m, err := moneq.Initialize(moneq.Config{Clock: clock, Interval: 100 * time.Millisecond}, col)
	if err != nil {
		panic(err)
	}
	clock.Advance(w.Duration() + 5*time.Second)
	if _, err := m.Finalize(); err != nil {
		panic(err)
	}
	powerS := m.Series("NVML", powerCap)
	tempS := m.Series("NVML", core.Capability{Component: core.Die, Metric: core.Temperature})
	p2, t2 := *powerS, *tempS
	p2.Name, t2.Name = "Board Power", "GPU Temperature"
	r.Series = []*trace.Series{&p2, &t2}

	genPhase := powerS.Clip(3*time.Second, 9*time.Second).MeanValue()
	compPhase := powerS.Clip(30*time.Second, 80*time.Second).MeanValue()
	tempStart := tempS.Clip(0, 5*time.Second).MeanValue()
	tempEnd := tempS.Clip(80*time.Second, 90*time.Second).MeanValue()
	// temperature monotone (within sensor quantization) during compute
	monotone := true
	prev := -1.0
	for _, smp := range tempS.Clip(15*time.Second, 85*time.Second).Samples {
		if smp.V < prev-1 {
			monotone = false
			break
		}
		if smp.V > prev {
			prev = smp.V
		}
	}
	r.Checks = append(r.Checks,
		check("GPU near idle during ~10 s host generation", genPhase < 60, "gen %.1f W", genPhase),
		check("dramatic increase when compute starts", compPhase > genPhase+60,
			"gen %.1f -> compute %.1f W", genPhase, compPhase),
		check("compute plateau ~125-150 W", compPhase > 110 && compPhase < 170, "%.1f W", compPhase),
		check("temperature shows steady increase", monotone && tempEnd > tempStart+10,
			"%.0f -> %.0f degC", tempStart, tempEnd),
	)
	return r
}

// --- Figure 6 -----------------------------------------------------------------

func runFig6(seed uint64) Result {
	r := Result{
		ID:      "fig6",
		Title:   "Control panel software architecture: one query down each path",
		Headers: []string{"Path", "Route", "Round trip", "Disturbs card?"},
	}
	card := mic.New(mic.Config{Index: 0, Seed: seed})
	card.Run(workload.NoopKernel(5*time.Minute), 0)

	// Each path is built with its vendor constructor: the figure measures
	// the mechanism's own round trip, which a -faults wrapper would hide.

	// (3) MICRAS daemon: on-card pseudo-file read
	daemon := micras.NewCollector(micras.NewFS(card))
	defer daemon.Close()

	// (2) out-of-band: BMC -> IPMB -> SMC -> IPMB -> BMC
	bus := ipmb.NewBus()
	smc := card.SMC(0)
	bus.Attach(smc)
	oob := mic.NewOOBCollector(ipmb.NewBMC(bus), smc.SlaveAddr())

	// (1) in-band: host -> SCIF -> coprocessor SysMgmt agent -> SCIF -> host
	net := scif.NewNetwork(1)
	svc, err := mic.StartSysMgmt(net, 1, card)
	if err != nil {
		panic(err)
	}
	inband := mic.NewInBandCollector(net, svc)

	// One instant, one query down each path. In-band goes last, as its
	// wake raises the card's draw from that instant on.
	const at = 10 * time.Second
	var watts [3]float64
	for i, c := range []core.Collector{daemon, oob, inband} {
		rs, err := c.CollectInto(nil, at)
		if err != nil {
			panic(err)
		}
		for _, rd := range rs {
			if rd.Cap == powerCap {
				watts[i] = rd.Value
			}
		}
	}
	daemonRT, oobRT, inbandRT := daemon.Cost(), oob.LastDone()-at, inband.LastDone()-at

	ms := func(d time.Duration) string { return fmt.Sprintf("%.3f ms", d.Seconds()*1000) }
	r.Rows = [][]string{
		{"in-band (1)", "host app -> user SCIF -> PCIe -> coprocessor SysMgmt -> back", ms(inbandRT), "yes (wakes cores)"},
		{"out-of-band (2)", "BMC -> IPMB bus -> SMC -> IPMB bus -> BMC", ms(oobRT), "no"},
		{"MICRAS (3)", "on-card read of " + micras.Root + "/*", ms(daemonRT), "yes (shares cores)"},
	}
	r.Checks = append(r.Checks,
		check("in-band round trip ~14.2 ms", inbandRT > 14*time.Millisecond && inbandRT < 15*time.Millisecond,
			"%v", inbandRT),
		check("out-of-band slower than a local read but off-card", oobRT > time.Millisecond, "%v", oobRT),
		check("daemon read is the cheapest", daemonRT < 100*time.Microsecond, "%v", daemonRT),
		check("all three collection paths serve the same SMC data", watts[0] == watts[1] && watts[1] == watts[2],
			"Total Power %.3f / %.3f / %.3f W (MICRAS / out-of-band / in-band)", watts[0], watts[1], watts[2]),
	)
	r.Notes = append(r.Notes,
		"the figure itself is an architecture diagram; this experiment exercises each drawn path end-to-end")
	return r
}

// --- Figure 7 -----------------------------------------------------------------

// Fig7Samples collects the two power sample sets of Figure 7: a no-op
// workload observed through the SysMgmt API and through the MICRAS daemon.
// A failed poll (only a -faults plan makes one) is counted in failed and
// left out of the samples.
func Fig7Samples(seed uint64) (api, daemon []float64, failed int) {
	const (
		pollEvery = 100 * time.Millisecond
		start     = 5 * time.Second
		end       = 65 * time.Second
	)
	// API path
	netA := scif.NewNetwork(1)
	cardA := mic.New(mic.Config{Index: 0, Seed: seed})
	cardA.Run(workload.NoopKernel(2*time.Minute), 0)
	svcA, err := mic.StartSysMgmt(netA, 1, cardA)
	if err != nil {
		panic(err)
	}
	colA := mustBuild(mic.InBand.Key, mic.InBandTarget{Net: netA, Svc: svcA})
	for ts := start; ts < end; ts += pollEvery {
		rs, err := colA.CollectInto(nil, ts)
		if err != nil {
			failed++
			continue
		}
		api = append(api, rs[0].Value)
	}
	// Daemon path (identically seeded card)
	cardD := mic.New(mic.Config{Index: 0, Seed: seed})
	cardD.Run(workload.NoopKernel(2*time.Minute), 0)
	// Built through the registry, so -faults reaches it; the session is
	// left open, as its card is discarded at return.
	colD := mustBuild(micras.Daemon.Key, micras.NewFS(cardD))
	for ts := start; ts < end; ts += pollEvery {
		rs, err := colD.CollectInto(nil, ts)
		if err != nil {
			failed++
			continue
		}
		daemon = append(daemon, rs[0].Value)
	}
	return api, daemon, failed
}

func runFig7(seed uint64) Result {
	r := Result{ID: "fig7", Title: "Total power of a no-op workload: SysMgmt API vs MICRAS daemon"}
	api, daemon, failed := Fig7Samples(seed)
	r.BoxLabels = []string{"API", "Daemon"}
	r.Boxes = []stats.Boxplot{stats.MakeBoxplot(api), stats.MakeBoxplot(daemon)}
	t := stats.WelchT(api, daemon)
	ma, md := stats.Mean(api), stats.Mean(daemon)
	r.Headers = []string{"Method", "Mean (W)", "Median (W)", "IQR (W)", "N"}
	r.Rows = [][]string{
		{"SysMgmt API", fmt.Sprintf("%.2f", ma), fmt.Sprintf("%.2f", r.Boxes[0].Med), fmt.Sprintf("%.2f", r.Boxes[0].IQR), fmt.Sprintf("%d", len(api))},
		{"MICRAS daemon", fmt.Sprintf("%.2f", md), fmt.Sprintf("%.2f", r.Boxes[1].Med), fmt.Sprintf("%.2f", r.Boxes[1].IQR), fmt.Sprintf("%d", len(daemon))},
	}
	r.Checks = append(r.Checks,
		check("API power exceeds daemon power", ma > md, "%.2f vs %.2f W", ma, md),
		check("difference slight (~3-5 W)", ma-md > 1 && ma-md < 8, "Δ %.2f W", ma-md),
		check("statistically significant (Welch p < 0.01)", t.P < 0.01, "t=%.2f df=%.0f p=%.2g", t.T, t.DF, t.P),
		check("both in the figure's ~111-119 W band", md > 108 && ma < 122,
			"daemon %.1f, API %.1f W", md, ma),
	)
	r.noteSkipped(failed)
	return r
}

// --- Figure 8 -----------------------------------------------------------------

func runFig8(seed uint64) Result {
	r := Result{ID: "fig8", Title: "Sum power, Gaussian elimination on 128 Xeon Phis (Stampede)"}
	c, err := cluster.NewStampede(128, seed)
	if err != nil {
		panic(err)
	}
	const (
		gen  = 100 * time.Second
		comp = 140 * time.Second
	)
	w := workload.PhiGauss(gen, comp)
	c.Run(w, 0, 50*time.Millisecond)

	times, watts := c.SumPhiSeries(0, 260*time.Second, time.Second)
	s := trace.NewSeries("Sum Power (128 Phis)", "W")
	for i := range times {
		s.MustAppend(times[i], watts[i])
	}
	r.Series = []*trace.Series{s}

	genPlateau := s.Clip(20*time.Second, 90*time.Second).MeanValue()
	compPlateau := s.Clip(130*time.Second, 230*time.Second).MeanValue()
	// locate the knee: the largest 5-second rise
	kneeAt := time.Duration(0)
	var best float64
	for i := 5; i < len(watts); i++ {
		if times[i] < 30*time.Second {
			continue // skip the power-on transient of the SMC samplers
		}
		if rise := watts[i] - watts[i-5]; rise > best {
			best = rise
			kneeAt = times[i]
		}
	}
	r.Checks = append(r.Checks,
		check("data generation for about the first 100 s", kneeAt > 95*time.Second && kneeAt < 115*time.Second,
			"knee at %v", kneeAt),
		check("compute plateau >> generation plateau", compPlateau > 1.5*genPlateau,
			"%.0f -> %.0f W", genPlateau, compPlateau),
		check("sum magnitude ~20-27 kW at 128 cards", compPlateau > 20000 && compPlateau < 28000,
			"%.0f W", compPlateau),
		check("per-card compute power ~200 W", compPlateau/128 > 170 && compPlateau/128 < 220,
			"%.0f W/card", compPlateau/128),
	)
	r.Notes = append(r.Notes,
		"the paper ran 16 cards 'in the interest of preserving allocation' and presents 128; the simulation runs all 128")
	return r
}
