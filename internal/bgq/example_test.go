package bgq_test

import (
	"fmt"
	"time"

	"envmon/internal/bgq"
	"envmon/internal/workload"
)

// Example reads one EMON generation from a node card: the 7 domains with
// voltage, current, and their staggered generation timestamps.
func Example() {
	machine := bgq.New(bgq.Config{Racks: 1, Seed: 42})
	card := machine.NodeCards()[0]
	machine.Run(workload.MMPS(10*time.Minute), 0, card)

	// Three readings per domain (power, voltage, current), then the total.
	readings, _ := card.EMON().CollectInto(nil, 5*time.Minute)
	for i, d := range bgq.Domains() {
		fmt.Printf("%-14s %6.1f W\n", d, readings[3*i].Value)
	}
	// Output:
	// Chip Core       810.6 W
	// DRAM            299.0 W
	// Link Chip Core  106.9 W
	// HSS Network     188.7 W
	// Optics          116.1 W
	// PCI Express      39.9 W
	// SRAM             46.1 W
}

// ExampleMachine_AttachEnvironmentalPoller shows the facility-side path:
// the environmental database sampling bulk power modules every 4 minutes.
func ExampleMachine_AttachEnvironmentalPoller() {
	machine := bgq.New(bgq.Config{Racks: 1, Seed: 42})
	fmt.Printf("%d node cards, %d nodes\n", len(machine.NodeCards()), machine.Nodes())
	fmt.Printf("link cards per rack: %d, service cards: %d\n",
		len(machine.Racks()[0].LinkCards), len(machine.Racks()[0].ServiceCards))
	// Output:
	// 32 node cards, 1024 nodes
	// link cards per rack: 8, service cards: 2
}
