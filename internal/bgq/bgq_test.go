package bgq

import (
	"math"
	"testing"
	"time"

	"envmon/internal/core"
	"envmon/internal/envdb"
	"envmon/internal/simclock"
	"envmon/internal/workload"
)

func testMachine() *Machine {
	return New(Config{Racks: 1, Seed: 42})
}

// domainReading is one domain's share of an EMON poll.
type domainReading struct {
	Domain             Domain
	Volts, Amps, Watts float64
	Generation         time.Duration
}

// readDomains polls e once and regroups CollectInto's readings by domain:
// power, voltage and current for each domain in Domains() order, each
// stamped with that domain's generation.
func readDomains(t testing.TB, e *EMON, now time.Duration) []domainReading {
	t.Helper()
	rs, err := e.CollectInto(nil, now)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]domainReading, NumDomains)
	for i, d := range Domains() {
		p, v, a := rs[3*i], rs[3*i+1], rs[3*i+2]
		if p.Cap.Metric != core.Power || v.Cap.Metric != core.Voltage || a.Cap.Metric != core.Current {
			t.Fatalf("%s: readings %d..%d are %v, %v, %v", d, 3*i, 3*i+2, p.Cap, v.Cap, a.Cap)
		}
		out[i] = domainReading{Domain: d, Volts: v.Value, Amps: a.Value, Watts: p.Value, Generation: p.Time}
	}
	return out
}

func TestTopologyCounts(t *testing.T) {
	m := testMachine()
	if got := len(m.Racks()); got != 1 {
		t.Fatalf("racks = %d", got)
	}
	if got := len(m.Racks()[0].Midplanes); got != MidplanesPerRack {
		t.Fatalf("midplanes = %d", got)
	}
	if got := len(m.Racks()[0].Midplanes[0].Boards); got != BoardsPerMidplane {
		t.Fatalf("boards = %d", got)
	}
	if got := len(m.NodeCards()); got != 32 {
		t.Fatalf("node cards = %d, want 32 per rack", got)
	}
	if got := m.Nodes(); got != NodesPerRack {
		t.Fatalf("nodes = %d, want %d", got, NodesPerRack)
	}
}

func TestMiraScale(t *testing.T) {
	m := New(Config{Racks: MiraRacks, Seed: 1})
	if m.Nodes() != 49152 {
		t.Fatalf("Mira nodes = %d, want 49152 (paper: full system run)", m.Nodes())
	}
	if len(m.NodeCards()) != 1536 {
		t.Fatalf("Mira node cards = %d, want 1536", len(m.NodeCards()))
	}
}

func TestCardNaming(t *testing.T) {
	m := testMachine()
	if got := m.NodeCards()[0].Name(); got != "R00-M0-N00" {
		t.Errorf("first card = %q", got)
	}
	if got := m.NodeCards()[31].Name(); got != "R00-M1-N15" {
		t.Errorf("last card = %q", got)
	}
}

func TestNewPanicsOnZeroRacks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with 0 racks did not panic")
		}
	}()
	New(Config{Racks: 0})
}

func TestDomainStrings(t *testing.T) {
	if ChipCore.String() != "Chip Core" || SRAM.String() != "SRAM" {
		t.Error("domain names wrong")
	}
	if Domain(99).String() != "Domain(99)" {
		t.Error("out-of-range domain name wrong")
	}
	if len(Domains()) != NumDomains {
		t.Error("Domains() wrong length")
	}
}

func TestIdlePowerMagnitude(t *testing.T) {
	m := testMachine()
	nc := m.NodeCards()[0]
	p := nc.TotalPower(10 * time.Second)
	// Idle node card should draw several hundred watts (Fig. 1 idle floor).
	if p < 600 || p > 900 {
		t.Errorf("idle node card power = %.0f W, want ~740", p)
	}
}

func TestMMPSPowerMagnitudeAndShape(t *testing.T) {
	m := testMachine()
	nc := m.NodeCards()[0]
	w := workload.MMPS(20 * time.Minute)
	m.Run(w, time.Minute, nc)

	idle := nc.TotalPower(30 * time.Second)
	loaded := nc.TotalPower(10 * time.Minute)
	after := nc.TotalPower(22 * time.Minute)

	if loaded < idle+500 {
		t.Errorf("MMPS raised power only %0.f -> %.0f W", idle, loaded)
	}
	if loaded < 1300 || loaded > 2100 {
		t.Errorf("MMPS node card power = %.0f W, want ~1.6 kW (Figs. 1-2 magnitude)", loaded)
	}
	if math.Abs(after-idle) > 60 {
		t.Errorf("power did not return to idle after job: %.0f vs %.0f", after, idle)
	}
}

func TestGenerationFreezing(t *testing.T) {
	m := testMachine()
	nc := m.NodeCards()[0]
	// Two reads inside the same generation window return identical data.
	w1, g1 := nc.DomainPower(ChipCore, 10*time.Second)
	w2, g2 := nc.DomainPower(ChipCore, g1+EMONGeneration-time.Nanosecond)
	if g1 != g2 {
		t.Fatalf("generations differ inside window: %v vs %v", g1, g2)
	}
	if w1 != w2 {
		t.Fatalf("values differ inside one generation: %v vs %v", w1, w2)
	}
	// A read one generation later differs (noise redrawn).
	w3, g3 := nc.DomainPower(ChipCore, 10*time.Second+EMONGeneration)
	if g3 == g1 {
		t.Fatal("generation did not advance")
	}
	if w3 == w1 {
		t.Error("suspicious: consecutive generations identical (noise frozen?)")
	}
}

func TestDomainSamplingSkew(t *testing.T) {
	// Domains must carry different generation timestamps (the paper's
	// "does not measure all domains at the exact same time").
	m := testMachine()
	e := m.NodeCards()[0].EMON()
	readings := readDomains(t, e, 10*time.Second)
	gens := make(map[time.Duration]bool)
	for _, r := range readings {
		gens[r.Generation] = true
	}
	if len(gens) < 2 {
		t.Errorf("all domains sampled at the same instant: %v", readings)
	}
	for _, r := range readings {
		if r.Generation > 10*time.Second {
			t.Errorf("%s generation %v is in the future", r.Domain, r.Generation)
		}
	}
}

func TestEMONVoltsAmpsConsistent(t *testing.T) {
	m := testMachine()
	e := m.NodeCards()[0].EMON()
	for _, r := range readDomains(t, e, 42*time.Second) {
		if math.Abs(r.Volts*r.Amps-r.Watts) > 1e-9*math.Max(1, r.Watts) {
			t.Errorf("%s: V*I=%v != W=%v", r.Domain, r.Volts*r.Amps, r.Watts)
		}
		if r.Volts <= 0 || r.Amps < 0 {
			t.Errorf("%s: nonphysical V=%v I=%v", r.Domain, r.Volts, r.Amps)
		}
	}
}

func TestEMONCollectorInterface(t *testing.T) {
	m := testMachine()
	var c core.Collector = m.NodeCards()[0].EMON()
	if c.Platform() != core.BlueGeneQ || c.Method() != "EMON" {
		t.Error("collector identity wrong")
	}
	if c.Cost() != EMONReadCost {
		t.Errorf("Cost = %v, want %v", c.Cost(), EMONReadCost)
	}
	rs, err := c.CollectInto(nil, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// 7 domains x (power, voltage, current) + total
	if len(rs) != 3*NumDomains+1 {
		t.Fatalf("Collect returned %d readings, want %d", len(rs), 3*NumDomains+1)
	}
	last := rs[len(rs)-1]
	if last.Cap != (core.Capability{Component: core.Total, Metric: core.Power}) {
		t.Errorf("last reading = %+v, want node-card total power", last.Cap)
	}
	var sum float64
	for _, r := range rs[:len(rs)-1] {
		if r.Cap.Metric == core.Power {
			sum += r.Value
		}
	}
	if math.Abs(sum-last.Value) > 1e-6 {
		t.Errorf("domain sum %v != reported total %v", sum, last.Value)
	}
}

func TestEMONQueriesCounter(t *testing.T) {
	m := testMachine()
	e := m.NodeCards()[0].EMON()
	for _, now := range []time.Duration{0, time.Second} {
		if _, err := e.CollectInto(nil, now); err != nil {
			t.Fatal(err)
		}
	}
	if e.Queries() != 2 {
		t.Errorf("Queries = %d, want 2", e.Queries())
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []float64 {
		m := New(Config{Racks: 1, Seed: 7})
		nc := m.NodeCards()[3]
		m.Run(workload.MMPS(5*time.Minute), 0, nc)
		var vals []float64
		for ts := time.Duration(0); ts < 5*time.Minute; ts += EMONGeneration {
			vals = append(vals, nc.TotalPower(ts))
		}
		return vals
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at sample %d: %v != %v", i, a[i], b[i])
		}
	}
}

func TestCardsHaveIndependentNoise(t *testing.T) {
	m := testMachine()
	a := m.NodeCards()[0]
	b := m.NodeCards()[1]
	same := 0
	for ts := time.Duration(0); ts < time.Minute; ts += EMONGeneration {
		pa, _ := a.DomainPower(ChipCore, ts)
		pb, _ := b.DomainPower(ChipCore, ts)
		if pa == pb {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d identical samples across cards — per-card seeds broken", same)
	}
}

func TestInputPowerExceedsOutput(t *testing.T) {
	m := testMachine()
	var in, out float64
	for _, rec := range m.NodeCards()[0].BulkPower().Sample(time.Minute) {
		switch rec.Sensor {
		case "input_power":
			in = rec.Value
		case "output_power":
			out = rec.Value
		}
	}
	if in <= out {
		t.Errorf("BPM input %v <= output %v; conversion loss missing", in, out)
	}
	if math.Abs(in*BPMEfficiency-out) > 1e-9 {
		t.Errorf("efficiency relation broken: %v * %v != %v", in, BPMEfficiency, out)
	}
}

func TestBulkPowerSourceRecords(t *testing.T) {
	m := testMachine()
	nc := m.NodeCards()[0]
	src := nc.BulkPower()
	if src.Location() != envdb.Location(nc.Name()) {
		t.Errorf("Location = %q", src.Location())
	}
	recs := src.Sample(time.Minute)
	if len(recs) != 4 {
		t.Fatalf("Sample returned %d records, want 4 (W and A, in and out)", len(recs))
	}
	byName := map[string]envdb.Record{}
	for _, r := range recs {
		byName[r.Sensor] = r
	}
	in, out := byName["input_power"], byName["output_power"]
	if in.Value <= out.Value {
		t.Errorf("input %v <= output %v", in.Value, out.Value)
	}
	if byName["output_current"].Value <= 0 {
		t.Error("output current not positive")
	}
}

func TestEnvironmentalPollerEndToEnd(t *testing.T) {
	clock := simclock.New()
	m := testMachine()
	db := envdb.New()
	p, err := m.AttachEnvironmentalPoller(db, 240*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	p.Start(clock)

	nc := m.NodeCards()[0]
	m.Run(workload.MMPS(20*time.Minute), 10*time.Minute, nc)
	clock.Advance(40 * time.Minute)

	// 40 min / 4 min = 10 polls
	if p.Polls() != 10 {
		t.Fatalf("polls = %d, want 10", p.Polls())
	}
	recs := db.Query(envdb.Location(nc.Name()), "input_power", 0, time.Hour)
	if len(recs) != 10 {
		t.Fatalf("input_power records = %d, want 10", len(recs))
	}
	// Idle shoulders visible: first sample idle, mid-run sample loaded.
	if recs[0].Value > 1000 {
		t.Errorf("first (idle) sample = %.0f W, want idle ~790", recs[0].Value)
	}
	var peak float64
	for _, r := range recs {
		if r.Value > peak {
			peak = r.Value
		}
	}
	if peak < 1400 {
		t.Errorf("no loaded sample captured: peak %.0f W", peak)
	}
	// Rack-level coolant data present.
	if got := db.Query("R00", "coolant_outlet_temp", 0, time.Hour); len(got) != 10 {
		t.Errorf("coolant records = %d, want 10", len(got))
	}
}

func TestPollerIntervalValidationPropagates(t *testing.T) {
	m := testMachine()
	if _, err := m.AttachEnvironmentalPoller(envdb.New(), time.Second); err == nil {
		t.Fatal("1s interval accepted")
	}
}

func TestEMONNodeCardGranularity(t *testing.T) {
	// All 32 nodes of a board share one EMON measurement point: reads from
	// the same card at the same time are identical regardless of "which
	// node" asks — by construction there is only one EMON per card. This
	// test documents the granularity limitation.
	m := testMachine()
	nc := m.NodeCards()[0]
	e1, e2 := nc.EMON(), nc.EMON()
	r1 := readDomains(t, e1, time.Minute)
	r2 := readDomains(t, e2, time.Minute)
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("two nodes on one card saw different EMON data: %v vs %v", r1[i], r2[i])
		}
	}
}

func BenchmarkEMONCollectInto(b *testing.B) {
	m := testMachine()
	nc := m.NodeCards()[0]
	m.Run(workload.MMPS(time.Hour), 0, nc)
	e := nc.EMON()
	var buf []core.Reading
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = e.CollectInto(buf, time.Duration(i)*time.Millisecond)
	}
}
