package bgq

import (
	"testing"
	"time"

	"envmon/internal/envdb"
	"envmon/internal/simclock"
	"envmon/internal/workload"
)

func TestRackInfrastructureCounts(t *testing.T) {
	m := testMachine()
	r := m.Racks()[0]
	if len(r.LinkCards) != LinkCardsPerRack {
		t.Errorf("link cards = %d, want %d (paper: eight link cards)", len(r.LinkCards), LinkCardsPerRack)
	}
	if len(r.ServiceCards) != ServiceCardsPerRack {
		t.Errorf("service cards = %d, want %d (paper: two service cards)", len(r.ServiceCards), ServiceCardsPerRack)
	}
	if r.LinkCards[0].Name != "R00-L0" || r.ServiceCards[1].Name != "R00-S1" {
		t.Errorf("names = %q, %q", r.LinkCards[0].Name, r.ServiceCards[1].Name)
	}
}

func TestLinkCardPowerFollowsNetworkLoad(t *testing.T) {
	m := testMachine()
	r := m.Racks()[0]
	lc := r.LinkCards[0]
	idle := lc.Power(10 * time.Second)
	m.Run(workload.MMPS(10*time.Minute), 0) // whole rack on the torus
	loaded := lc.Power(5 * time.Minute)
	if loaded < idle+15 {
		t.Errorf("link card power %0.1f -> %0.1f W; should rise with torus traffic", idle, loaded)
	}
	if idle < 35 || idle > 45 {
		t.Errorf("idle link card power = %.1f W, want ~40", idle)
	}
}

func TestInfrastructureInEnvironmentalDatabase(t *testing.T) {
	clock := simclock.New()
	m := testMachine()
	db := envdb.New()
	p, err := m.AttachEnvironmentalPoller(db, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	p.Start(clock)
	clock.Advance(5 * time.Minute)

	if recs := db.Query("R00-L3", "link_chip_power", 0, time.Hour); len(recs) != 5 {
		t.Errorf("link chip power records = %d, want 5", len(recs))
	}
	if recs := db.Query("R00-L3", "link_chip_temp", 0, time.Hour); len(recs) != 5 {
		t.Errorf("link chip temp records = %d, want 5", len(recs))
	}
	if recs := db.Query("R00-S0", "rail_5v", 0, time.Hour); len(recs) != 5 {
		t.Errorf("service rail records = %d, want 5", len(recs))
	}
	for _, rec := range db.Query("R00-S0", "rail_5v", 0, time.Hour) {
		if rec.Value < 4.9 || rec.Value > 5.1 {
			t.Errorf("5V rail = %.3f V", rec.Value)
		}
	}
}
