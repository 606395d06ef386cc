// Command micsmc mimics Intel's micsmc status utility against the
// simulated Xeon Phi: it prints card status the way the real tool's
// text mode does, sourcing the data from the MICRAS daemon path.
//
// Like envtop, the card is attached to a core.DeviceSet and its collector
// built through the backend registry — the status sections below are
// rendered from generic core.Reading values, not from the card's internal
// snapshot. The one exception is core frequency: the MICRAS pseudo-files
// carry no frequency entry (the paper's Table I gap), so the Information
// section reads it from the card's identification interface, as the real
// tool does.
//
// Usage:
//
//	micsmc                      # idle card snapshot
//	micsmc -workload gauss -at 2m
//	micsmc -files               # dump the raw pseudo-files instead
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"envmon/internal/core"
	"envmon/internal/mic"
	"envmon/internal/micras"
	"envmon/internal/workload"
)

func main() {
	var (
		seed   = flag.Uint64("seed", 42, "noise seed")
		at     = flag.Duration("at", 30*time.Second, "simulated time of the snapshot")
		wlName = flag.String("workload", "", "run a workload first (gauss|noop|vecadd)")
		files  = flag.Bool("files", false, "dump raw pseudo-file contents")
	)
	flag.Parse()

	if *at <= 0 {
		fmt.Fprintln(os.Stderr, "micsmc: -at must be positive")
		os.Exit(2)
	}

	card := mic.New(mic.Config{Index: 0, Seed: *seed})
	switch *wlName {
	case "":
	case "gauss":
		card.Run(workload.PhiGauss(*at/3, *at), 0)
	case "noop":
		card.Run(workload.NoopKernel(2**at), 0)
	case "vecadd":
		card.Run(workload.VectorAdd(*at/4, *at), 0)
	default:
		fmt.Fprintf(os.Stderr, "micsmc: unknown workload %q\n", *wlName)
		os.Exit(2)
	}
	fs := micras.NewFS(card)

	if *files {
		for _, path := range fs.List() {
			b, err := fs.ReadFile(path, *at)
			if err != nil {
				fmt.Fprintln(os.Stderr, "micsmc:", err)
				os.Exit(1)
			}
			fmt.Printf("==> %s <==\n%s\n", path, b)
		}
		return
	}

	var set core.DeviceSet
	set.Attach(core.BackendKey{Platform: core.XeonPhi, Method: "MICRAS daemon"}, fs)
	cols, err := set.Collectors(core.DefaultRegistry)
	if err != nil {
		fmt.Fprintln(os.Stderr, "micsmc:", err)
		os.Exit(1)
	}
	rs, err := cols[0].CollectInto(nil, *at)
	if err != nil {
		fmt.Fprintln(os.Stderr, "micsmc:", err)
		os.Exit(1)
	}
	get := func(component core.Component, metric core.Metric) float64 {
		want := core.Capability{Component: component, Metric: metric}
		for _, r := range rs {
			if r.Cap == want {
				return r.Value
			}
		}
		fmt.Fprintf(os.Stderr, "micsmc: daemon reported no %s reading\n", want)
		os.Exit(1)
		return 0
	}

	const mb = 1 << 20
	usedMB := get(core.Memory, core.MemoryUsed) / mb
	freeMB := get(core.Memory, core.MemoryFree) / mb

	fmt.Printf("%s (Information):\n", card.Name())
	fmt.Printf("   Device Series: ........... Intel(R) Xeon Phi(TM) coprocessor (simulated)\n")
	fmt.Printf("   Number of Cores: ......... %d\n", mic.Cores)
	fmt.Printf("   Threads per Core: ........ %d\n", mic.ThreadsPerCore)
	fmt.Printf("   Core Frequency: .......... %d MHz\n", card.SnapshotAt(*at).CoreMHz)
	fmt.Printf("   Memory Size: ............. %.0f MB\n", usedMB+freeMB)
	fmt.Printf("\n%s (Thermal):\n", card.Name())
	fmt.Printf("   Die Temp: ................ %.1f C\n", get(core.Die, core.Temperature))
	fmt.Printf("   GDDR Temp: ............... %.1f C\n", get(core.DDR, core.Temperature))
	fmt.Printf("   Fan-In Temp: ............. %.1f C\n", get(core.Intake, core.Temperature))
	fmt.Printf("   Fan-Out Temp: ............ %.1f C\n", get(core.Exhaust, core.Temperature))
	fmt.Printf("   Fan Speed: ............... %.0f RPM\n", get(core.Fan, core.FanSpeed))
	fmt.Printf("\n%s (Power):\n", card.Name())
	fmt.Printf("   Total Power: ............. %.1f W\n", get(core.Total, core.Power))
	fmt.Printf("   Core Voltage: ............ %.3f V\n", get(core.Processor, core.Voltage))
	fmt.Printf("   Memory Voltage: .......... %.3f V\n", get(core.Memory, core.Voltage))
	fmt.Printf("\n%s (Memory Usage):\n", card.Name())
	fmt.Printf("   Used: .................... %.0f MB\n", usedMB)
	fmt.Printf("   Free: .................... %.0f MB\n", freeMB)
	fmt.Printf("   Speed: ................... %.0f kT/s\n", get(core.Memory, core.MemorySpeed))
}
