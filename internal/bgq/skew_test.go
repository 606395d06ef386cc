package bgq

import (
	"testing"
	"time"

	"envmon/internal/workload"
)

// TestEMONInconsistentSnapshotAtPhaseChange reproduces the paper's
// observation that "the underlying power measurement infrastructure does
// not measure all domains at the exact same time. This may result in some
// inconsistent cases, such as the case when a piece of code begins to
// stress both the CPU and memory at the same time."
//
// A job that jumps from idle to full compute+memory at a generation
// boundary, queried immediately after the jump, yields a snapshot where
// the earliest-sampled domain (Chip Core, skew 0) already shows loaded
// power while later-sampled domains still report the idle generation.
func TestEMONInconsistentSnapshotAtPhaseChange(t *testing.T) {
	m := New(Config{Racks: 1, Seed: 42})
	nc := m.NodeCards()[0]

	// Start the load exactly on a generation boundary.
	start := 100 * EMONGeneration // 56 s
	m.Run(workload.FixedRuntime(5*time.Minute), start, nc)

	readings := readDomains(t, nc.EMON(), start+time.Millisecond)
	byDomain := map[Domain]domainReading{}
	for _, r := range readings {
		byDomain[r.Domain] = r
	}

	chip := byDomain[ChipCore]
	sram := byDomain[SRAM]
	if chip.Generation < start {
		t.Fatalf("Chip Core generation %v precedes the phase change %v", chip.Generation, start)
	}
	if sram.Generation >= start {
		t.Fatalf("SRAM generation %v already past the phase change %v (skew missing)", sram.Generation, start)
	}
	// Chip Core reflects the new loaded phase (~809 W); SRAM still the old
	// idle phase (~25 W rather than ~37 W loaded).
	if chip.Watts < 600 {
		t.Errorf("Chip Core = %.0f W; should already show the loaded phase", chip.Watts)
	}
	if sram.Watts > 30 {
		t.Errorf("SRAM = %.1f W; should still show the idle generation (~25 W)", sram.Watts)
	}

	// One generation later the snapshot is consistent again.
	later := readDomains(t, nc.EMON(), start+2*EMONGeneration)
	for _, r := range later {
		if r.Generation < start {
			t.Errorf("%s still serving pre-change data two generations later", r.Domain)
		}
	}
}

// TestEMONSkewBounded: the staggered sampling never exceeds one generation
// window — data is stale, not ancient.
func TestEMONSkewBounded(t *testing.T) {
	m := New(Config{Racks: 1, Seed: 1})
	nc := m.NodeCards()[0]
	for _, at := range []time.Duration{time.Second, 10 * time.Second, time.Hour} {
		for _, r := range readDomains(t, nc.EMON(), at) {
			age := at - r.Generation
			if age < 0 || age >= 2*EMONGeneration {
				t.Errorf("%s at %v: generation age %v outside [0, 2x560ms)", r.Domain, at, age)
			}
		}
	}
}
