package rapl

import (
	"testing"
	"time"

	"envmon/internal/core"
	"envmon/internal/msr"
	"envmon/internal/power"
	"envmon/internal/workload"
)

func TestSocketNameAndDefaults(t *testing.T) {
	s := NewSocket(Config{Seed: 1}) // no name
	if s.Name() != "socket0" {
		t.Errorf("default name = %q", s.Name())
	}
	s2 := NewSocket(Config{Name: "cpu7", Seed: 1})
	if s2.Name() != "cpu7" {
		t.Errorf("Name = %q", s2.Name())
	}
	// zero-core driver clamps to one device node
	drv := s.Driver(0)
	drv.Load()
	if _, err := drv.Open(0, msr.Root); err != nil {
		t.Fatal(err)
	}
}

func TestCustomModelsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-length Models accepted")
		}
	}()
	NewSocket(Config{Seed: 1, Models: []power.DomainModel{{Name: "only-one"}}})
}

func TestTruePower(t *testing.T) {
	s := NewSocket(Config{Name: "tp", Seed: 3})
	if got := s.TruePower(PKG, time.Second); got != 10 {
		t.Errorf("idle TruePower = %v, want exactly 10 (noiseless)", got)
	}
	s.Run(workload.FixedRuntime(time.Minute), 0)
	loaded := s.TruePower(PKG, 30*time.Second)
	if loaded <= 10 {
		t.Errorf("loaded TruePower = %v", loaded)
	}
}

func TestCollectorMinIntervals(t *testing.T) {
	s := NewSocket(Config{Name: "mi", Seed: 1})
	drv := s.Driver(1)
	drv.Load()
	dev, err := drv.Open(0, msr.Root)
	if err != nil {
		t.Fatal(err)
	}
	col, err := NewMSRCollector(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	if col.MinInterval() != 60*time.Millisecond {
		t.Errorf("MSR MinInterval = %v", col.MinInterval())
	}
	p := NewPerfReader(s, 0)
	if p.MinInterval() != 60*time.Millisecond {
		t.Errorf("perf MinInterval = %v", p.MinInterval())
	}
	if p.Platform() != core.RAPL {
		t.Errorf("perf Platform = %v", p.Platform())
	}
}
