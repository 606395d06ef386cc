package msr

import (
	"errors"
	"testing"
	"time"

	"envmon/internal/core"
)

func TestStaticRegister(t *testing.T) {
	v, err := Static(42).Read(0)
	if err != nil || v != 42 {
		t.Fatalf("Read = %v, %v", v, err)
	}
}

func TestFuncRegister(t *testing.T) {
	f := Func(func(now time.Duration) uint64 { return uint64(now / time.Millisecond) })
	if v, _ := f.Read(5 * time.Millisecond); v != 5 {
		t.Fatalf("Func read = %v", v)
	}
}

func TestRegisterFileFaultsOnUnknown(t *testing.T) {
	rf := NewRegisterFile()
	if _, err := rf.Read(PkgEnergyStatus, 0); err == nil {
		t.Fatal("read of unimplemented MSR succeeded")
	}
}

func TestRegisterFileInstallAndAccess(t *testing.T) {
	rf := NewRegisterFile()
	rf.Install(RAPLPowerUnit, Static(0xA1003))
	v, err := rf.Read(RAPLPowerUnit, 0)
	if err != nil || v != 0xA1003 {
		t.Fatalf("Read = %#x, %v", v, err)
	}
}

func newTestDriver() *Driver {
	rf := NewRegisterFile()
	rf.Install(RAPLPowerUnit, Static(0xA1003))
	return NewDriver(map[int]*RegisterFile{0: rf, 1: rf})
}

func TestOpenRequiresLoadedDriver(t *testing.T) {
	d := newTestDriver()
	if _, err := d.Open(0, Root); err == nil {
		t.Fatal("Open succeeded with driver not loaded")
	}
	d.Load()
	if _, err := d.Open(0, Root); err != nil {
		t.Fatalf("Open as root failed: %v", err)
	}
}

func TestOpenPermissionGate(t *testing.T) {
	d := newTestDriver()
	d.Load()
	user := Credentials{UID: 1000}
	_, err := d.Open(0, user)
	if !errors.Is(err, core.ErrPermission) {
		t.Fatalf("non-root open err = %v, want ErrPermission", err)
	}
}

func TestOpenUnknownCPU(t *testing.T) {
	d := newTestDriver()
	d.Load()
	if _, err := d.Open(99, Root); err == nil {
		t.Fatal("Open of nonexistent CPU succeeded")
	}
}

func TestRAPLAddressesMatchSDM(t *testing.T) {
	// Guard against typos: these addresses are fixed by the Intel SDM.
	cases := map[Address]uint32{
		RAPLPowerUnit:    0x606,
		PkgPowerLimit:    0x610,
		PkgEnergyStatus:  0x611,
		DRAMPowerLimit:   0x618,
		DRAMEnergyStatus: 0x619,
		PP0PowerLimit:    0x638,
		PP0EnergyStatus:  0x639,
		PP1PowerLimit:    0x640,
		PP1EnergyStatus:  0x641,
	}
	for addr, want := range cases {
		if uint32(addr) != want {
			t.Errorf("address %#x, want %#x", uint32(addr), want)
		}
	}
}
