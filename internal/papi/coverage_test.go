package papi

import (
	"testing"
	"time"

	"envmon/internal/nvml"
)

// counterComponent is a minimal Component whose one event is a Counter.
type counterComponent struct{ v int64 }

func (d *counterComponent) Name() string          { return "plain" }
func (d *counterComponent) Events() []string      { return []string{"COUNT"} }
func (d *counterComponent) Kind(string) EventKind { return Counter }
func (d *counterComponent) Read(event string, now time.Duration) (int64, error) {
	d.v += int64(now / time.Second)
	return d.v, nil
}

func TestCounterComponentReadsDeltaFromStart(t *testing.T) {
	lib, err := NewLibrary(&counterComponent{})
	if err != nil {
		t.Fatal(err)
	}
	lib.Init()
	es, _ := lib.CreateEventSet()
	if err := es.AddEvent("plain:::COUNT"); err != nil {
		t.Fatal(err)
	}
	if err := es.Start(time.Second); err != nil {
		t.Fatal(err)
	}
	vals, err := es.Read(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// counter semantics: delta from Start, not the raw value
	if vals[0] >= 3 {
		t.Errorf("counter value = %d; looks like a raw read, not a delta", vals[0])
	}
}

func TestComponentReadErrors(t *testing.T) {
	// bogus native events straight at the components
	lib, _, gpu, _ := newTestLibrary(t)
	_ = lib
	rc := NewRAPLComponent(nil)
	if _, err := rc.Read("NOT_AN_EVENT", 0); err == nil {
		t.Error("rapl bogus event accepted")
	}
	nc := NewNVMLComponent(gpu)
	if _, err := nc.Read("Tesla_K20:bogus", 0); err == nil {
		t.Error("nvml bogus event accepted")
	}
	mc := &MICComponent{}
	if _, err := mc.Read("bogus", 0); err == nil {
		t.Error("mic bogus event accepted")
	}
}

func TestNVMLComponentSurfacesGPULost(t *testing.T) {
	gpu := nvml.NewDevice(nvml.K20Spec(), 0, 1)
	c := NewNVMLComponent(gpu)
	gpu.SetLost(true)
	for _, ev := range []string{"Tesla_K20:power", "Tesla_K20:temperature"} {
		if _, err := c.Read(ev, 0); err == nil {
			t.Errorf("%s on lost GPU succeeded", ev)
		}
	}
	// fan_speed has no lost gate in NVML (board microcontroller answers);
	// reading it still works.
	if _, err := c.Read("Tesla_K20:fan_speed", 0); err != nil {
		t.Errorf("fan read failed: %v", err)
	}
}

func TestEventSetStartFailurePropagates(t *testing.T) {
	gpu := nvml.NewDevice(nvml.K20Spec(), 0, 2)
	lib, err := NewLibrary(NewNVMLComponent(gpu))
	if err != nil {
		t.Fatal(err)
	}
	lib.Init()
	es, _ := lib.CreateEventSet()
	es.AddEvent("nvml:::Tesla_K20:power")
	gpu.SetLost(true)
	if err := es.Start(0); err == nil {
		t.Fatal("Start on lost GPU succeeded")
	}
	gpu.SetLost(false)
	if err := es.Start(time.Second); err != nil {
		t.Fatal(err)
	}
	gpu.SetLost(true)
	if _, err := es.Read(2 * time.Second); err == nil {
		t.Fatal("Read on lost GPU succeeded")
	}
}

func TestMICComponentReadings(t *testing.T) {
	_, _, _, card := newTestLibrary(t)
	c := NewMICComponent(card)
	v, err := c.Read("die_temp", 10*time.Second)
	if err != nil || v < 35 || v > 95 {
		t.Errorf("die_temp = %d, %v", v, err)
	}
	if v, _ := c.Read("vccp", 11*time.Second); v != 1030 {
		t.Errorf("vccp = %d", v)
	}
}
