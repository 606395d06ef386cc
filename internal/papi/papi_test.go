package papi

import (
	"math"
	"testing"
	"time"

	"envmon/internal/mic"
	"envmon/internal/nvml"
	"envmon/internal/rapl"
	"envmon/internal/workload"
)

func newTestLibrary(t *testing.T) (*Library, *rapl.Socket, *nvml.Device, *mic.Card) {
	t.Helper()
	socket := rapl.NewSocket(rapl.Config{Name: "papi", Seed: 42})
	gpu := nvml.NewDevice(nvml.K20Spec(), 0, 42)
	card := mic.New(mic.Config{Index: 0, Seed: 42})
	lib, err := NewLibrary(NewRAPLComponent(socket), NewNVMLComponent(gpu), NewMICComponent(card))
	if err != nil {
		t.Fatal(err)
	}
	return lib, socket, gpu, card
}

func TestLibraryLifecycle(t *testing.T) {
	lib, _, _, _ := newTestLibrary(t)
	if _, err := lib.CreateEventSet(); err == nil {
		t.Fatal("event set created before Init")
	}
	if err := lib.Init(); err != nil {
		t.Fatal(err)
	}
	if err := lib.Init(); err == nil {
		t.Fatal("double Init accepted")
	}
	if _, err := lib.CreateEventSet(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateComponentRejected(t *testing.T) {
	s := rapl.NewSocket(rapl.Config{Name: "x", Seed: 1})
	if _, err := NewLibrary(NewRAPLComponent(s), NewRAPLComponent(s)); err == nil {
		t.Fatal("duplicate components accepted")
	}
}

func TestEventNameValidation(t *testing.T) {
	lib, _, _, _ := newTestLibrary(t)
	lib.Init()
	es, _ := lib.CreateEventSet()
	cases := []string{
		"PACKAGE_ENERGY:PACKAGE0",         // missing component
		"bogus:::PACKAGE_ENERGY:PACKAGE0", // unknown component
		"rapl:::NOT_AN_EVENT",             // unknown native event
	}
	for _, c := range cases {
		if err := es.AddEvent(c); err == nil {
			t.Errorf("AddEvent(%q) accepted", c)
		}
	}
	if err := es.AddEvent("rapl:::PACKAGE_ENERGY:PACKAGE0"); err != nil {
		t.Fatal(err)
	}
	if err := es.AddEvent("rapl:::PACKAGE_ENERGY:PACKAGE0"); err == nil {
		t.Fatal("duplicate event accepted")
	}
}

func TestEventSetStateMachine(t *testing.T) {
	lib, _, _, _ := newTestLibrary(t)
	lib.Init()
	es, _ := lib.CreateEventSet()
	if err := es.Start(0); err == nil {
		t.Fatal("empty set started")
	}
	es.AddEvent("rapl:::PACKAGE_ENERGY:PACKAGE0")
	if _, err := es.Read(0); err == nil {
		t.Fatal("read before start")
	}
	if err := es.Start(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := es.Start(2 * time.Second); err == nil {
		t.Fatal("double start accepted")
	}
	if err := es.AddEvent("rapl:::DRAM_ENERGY:PACKAGE0"); err == nil {
		t.Fatal("AddEvent on running set accepted")
	}
	if _, err := es.Read(500 * time.Millisecond); err == nil {
		t.Fatal("read before start time accepted")
	}
	if _, err := es.Stop(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := es.Read(4 * time.Second); err == nil {
		t.Fatal("read after stop accepted")
	}
	// restartable
	if err := es.Start(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestRAPLCounterSemantics(t *testing.T) {
	lib, socket, _, _ := newTestLibrary(t)
	socket.Run(workload.GaussElim(60*time.Second), 0)
	lib.Init()
	es, _ := lib.CreateEventSet()
	es.AddEvent("rapl:::PACKAGE_ENERGY:PACKAGE0")
	es.AddEvent("rapl:::DRAM_ENERGY:PACKAGE0")
	if err := es.Start(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	vals, err := es.Read(20 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// PKG under gauss ~47 W for 10 s -> ~470 J = 4.7e11 nJ
	pkgJ := float64(vals[0]) / 1e9
	if pkgJ < 400 || pkgJ > 560 {
		t.Errorf("PKG energy over 10 s = %.0f J, want ~470", pkgJ)
	}
	if vals[1] <= 0 || vals[1] >= vals[0] {
		t.Errorf("DRAM %d should be positive and below PKG %d", vals[1], vals[0])
	}
	// counters keep accumulating
	vals2, _ := es.Stop(30 * time.Second)
	if vals2[0] <= vals[0] {
		t.Error("counter did not accumulate between reads")
	}
}

func TestNVMLGaugeSemantics(t *testing.T) {
	lib, _, gpu, _ := newTestLibrary(t)
	gpu.Run(workload.NoopKernel(time.Minute), 0)
	lib.Init()
	es, _ := lib.CreateEventSet()
	es.AddEvent("nvml:::Tesla_K20:power")
	es.AddEvent("nvml:::Tesla_K20:temperature")
	if err := es.Start(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	vals, err := es.Read(20 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// gauge: instantaneous mW, NOT a delta (a delta would be near zero)
	w := float64(vals[0]) / 1000
	if w < 40 || w > 80 {
		t.Errorf("NVML power gauge = %.1f W, want ~58 (instantaneous, not delta)", w)
	}
	if vals[1] < 30 || vals[1] > 100 {
		t.Errorf("temperature gauge = %d C", vals[1])
	}
}

func TestMICGauge(t *testing.T) {
	lib, _, _, card := newTestLibrary(t)
	card.Run(workload.NoopKernel(time.Minute), 0)
	lib.Init()
	es, _ := lib.CreateEventSet()
	es.AddEvent("micpower:::tot0")
	es.AddEvent("micpower:::vccp")
	if err := es.Start(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	vals, err := es.Read(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	w := float64(vals[0]) / 1e6
	if w < 100 || w > 130 {
		t.Errorf("MIC power = %.1f W, want ~112", w)
	}
	if vals[1] != 1030 {
		t.Errorf("vccp = %d mV", vals[1])
	}
}

func TestMixedComponentEventSet(t *testing.T) {
	// The paper: "PAPI allows for monitoring at designated intervals
	// (similar to MonEQ) for a given set of data" — across components.
	lib, socket, gpu, card := newTestLibrary(t)
	w := workload.VectorAdd(10*time.Second, 40*time.Second)
	socket.Run(w, 0)
	gpu.Run(w, 0)
	card.Run(w, 0)
	lib.Init()
	es, _ := lib.CreateEventSet()
	for _, e := range []string{
		"rapl:::PACKAGE_ENERGY:PACKAGE0",
		"nvml:::Tesla_K20:power",
		"micpower:::tot0",
	} {
		if err := es.AddEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := es.Start(0); err != nil {
		t.Fatal(err)
	}
	var lastPkg int64
	for ts := time.Second; ts <= 50*time.Second; ts += time.Second {
		vals, err := es.Read(ts)
		if err != nil {
			t.Fatal(err)
		}
		if vals[0] < lastPkg {
			t.Fatalf("PKG counter went backwards at %v", ts)
		}
		lastPkg = vals[0]
	}
	vals, err := es.Stop(55 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// host generation + compute spread energy across all three devices
	if vals[0] == 0 || vals[1] == 0 || vals[2] == 0 {
		t.Errorf("some component read zero: %v", vals)
	}
}

func TestPAPIAgreesWithMonEQBackends(t *testing.T) {
	// Both tools observe the same simulated hardware: PAPI's RAPL energy
	// over a window must match the socket's own accounting.
	socket := rapl.NewSocket(rapl.Config{Name: "agree", Seed: 9})
	socket.Run(workload.GaussElim(30*time.Second), 0)
	lib, err := NewLibrary(NewRAPLComponent(socket))
	if err != nil {
		t.Fatal(err)
	}
	lib.Init()
	es, _ := lib.CreateEventSet()
	es.AddEvent("rapl:::PACKAGE_ENERGY:PACKAGE0")
	es.Start(5 * time.Second)
	ref0 := socket.EnergyJoules(rapl.PKG, 5*time.Second)
	vals, _ := es.Stop(25 * time.Second)
	ref1 := socket.EnergyJoules(rapl.PKG, 25*time.Second)
	papiJ := float64(vals[0]) / 1e9
	if math.Abs(papiJ-(ref1-ref0)) > 1e-6 {
		t.Errorf("PAPI %.6f J vs socket %.6f J", papiJ, ref1-ref0)
	}
}
