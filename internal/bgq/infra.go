package bgq

import (
	"fmt"
	"time"

	"envmon/internal/envdb"
	"envmon/internal/simrand"
	"envmon/internal/workload"
)

// Rack infrastructure beyond the node boards. The paper: "A rack of a BG/Q
// system consists of two midplanes, eight link cards, and two service
// cards", and the environmental database gathers data from "service cards,
// node boards, compute nodes, link chips, bulk power modules (BPMs), and
// the coolant environment".

// Infrastructure counts per rack.
const (
	LinkCardsPerRack    = 8
	ServiceCardsPerRack = 2
)

// LinkCard carries the optical link chips connecting midplanes; its draw
// follows the rack's network activity.
type LinkCard struct {
	Index int
	Name  string
	rack  *Rack
	seed  uint64
}

// ServiceCard is the rack's management controller: near-constant draw,
// plus the rails it reports to the environmental database.
type ServiceCard struct {
	Index int
	Name  string
	seed  uint64
}

// networkActivityAt averages the rack's node-card network activity —
// link-card load follows the traffic crossing midplanes. Sampled from the
// cards' assigned workloads.
func (r *Rack) networkActivityAt(t time.Duration) float64 {
	var sum float64
	var n int
	for _, mp := range r.Midplanes {
		for _, nc := range mp.Boards {
			sum += nc.activityAt(t).Network
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Power reports the link card's draw at time t: ~40 W idle, up to ~65 W
// with the torus saturated.
func (lc *LinkCard) Power(t time.Duration) float64 {
	act := lc.rack.networkActivityAt(t)
	rng := simrand.New(lc.seed ^ uint64(t/time.Second))
	return rng.Normal(40+25*act, 0.4)
}

// Location implements envdb.Source.
func (lc *LinkCard) Location() envdb.Location { return envdb.Location(lc.Name) }

// Sample implements envdb.Source: link chip power and temperature.
func (lc *LinkCard) Sample(now time.Duration) []envdb.Record {
	w := lc.Power(now)
	rng := simrand.New(lc.seed ^ 0x11C ^ uint64(now))
	temp := 24 + w*0.35 + rng.Normal(0, 0.2)
	return []envdb.Record{
		{Time: now, Location: lc.Location(), Sensor: "link_chip_power", Value: w, Unit: "W"},
		{Time: now, Location: lc.Location(), Sensor: "link_chip_temp", Value: temp, Unit: "degC"},
	}
}

// Location implements envdb.Source.
func (sc *ServiceCard) Location() envdb.Location { return envdb.Location(sc.Name) }

// Sample implements envdb.Source: service-card rails and temperature.
func (sc *ServiceCard) Sample(now time.Duration) []envdb.Record {
	rng := simrand.New(sc.seed ^ uint64(now))
	return []envdb.Record{
		{Time: now, Location: sc.Location(), Sensor: "service_power", Value: rng.Normal(28, 0.3), Unit: "W"},
		{Time: now, Location: sc.Location(), Sensor: "rail_5v", Value: rng.Normal(5.0, 0.01), Unit: "V"},
		{Time: now, Location: sc.Location(), Sensor: "rail_3v3", Value: rng.Normal(3.3, 0.008), Unit: "V"},
		{Time: now, Location: sc.Location(), Sensor: "card_temp", Value: rng.Normal(32, 0.4), Unit: "degC"},
	}
}

// buildInfrastructure attaches link and service cards to a rack.
func (m *Machine) buildInfrastructure(rack *Rack) {
	for i := 0; i < LinkCardsPerRack; i++ {
		name := fmt.Sprintf("%s-L%d", rack.Name, i)
		rack.LinkCards = append(rack.LinkCards, &LinkCard{
			Index: i, Name: name, rack: rack,
			seed: simrand.New(m.cfg.Seed).Split("link-" + name).Uint64(),
		})
	}
	for i := 0; i < ServiceCardsPerRack; i++ {
		name := fmt.Sprintf("%s-S%d", rack.Name, i)
		rack.ServiceCards = append(rack.ServiceCards, &ServiceCard{
			Index: i, Name: name,
			seed: simrand.New(m.cfg.Seed).Split("svc-" + name).Uint64(),
		})
	}
}

// interface conformance checks
var (
	_ envdb.Source = (*LinkCard)(nil)
	_ envdb.Source = (*ServiceCard)(nil)
	_              = workload.Activity{} // keep import set stable for future infra models
)
