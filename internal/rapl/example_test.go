package rapl_test

import (
	"fmt"
	"time"

	"envmon/internal/msr"
	"envmon/internal/rapl"
	"envmon/internal/workload"
)

// Example shows the userspace RAPL collection flow the paper describes:
// load the msr driver, open /dev/cpu/0/msr, decode the unit register, and
// derive watts from energy-counter deltas.
func Example() {
	socket := rapl.NewSocket(rapl.Config{Name: "socket0", Seed: 42})
	socket.Run(workload.GaussElim(60*time.Second), 0)

	driver := socket.Driver(8) // 8 logical CPUs share the socket's MSRs
	driver.Load()              // modprobe msr
	dev, err := driver.Open(0, msr.Root)
	if err != nil {
		panic(err)
	}

	raw, _ := dev.Read(msr.RAPLPowerUnit, 0)
	_, energyUnit, _ := rapl.DecodeUnits(raw)
	fmt.Printf("energy unit: %.1f uJ\n", energyUnit*1e6)

	// watts = delta(counter) * unit / delta(t)
	c0, _ := dev.Read(msr.PkgEnergyStatus, 10*time.Second)
	c1, _ := dev.Read(msr.PkgEnergyStatus, 20*time.Second)
	joules := float64(uint32(c1)-uint32(c0)) * energyUnit
	fmt.Printf("package power: %.0f W\n", joules/10)
	// Output:
	// energy unit: 15.3 uJ
	// package power: 47 W
}
