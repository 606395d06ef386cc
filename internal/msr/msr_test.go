package msr

import (
	"errors"
	"testing"
	"time"

	"envmon/internal/core"
)

func TestStaticRegister(t *testing.T) {
	r := NewStatic(42)
	v, err := r.Read(0)
	if err != nil || v != 42 {
		t.Fatalf("Read = %v, %v", v, err)
	}
	if err := r.Write(0, 7); err != nil {
		t.Fatal(err)
	}
	if v, _ := r.Read(0); v != 7 {
		t.Fatalf("after Write, Read = %v", v)
	}
}

func TestReadOnlyRejectsWrites(t *testing.T) {
	r := ReadOnly{R: NewStatic(5)}
	if _, err := r.Read(0); err != nil {
		t.Fatal(err)
	}
	if err := r.Write(0, 1); err == nil {
		t.Fatal("write to read-only register succeeded")
	}
}

func TestFuncRegister(t *testing.T) {
	f := Func(func(now time.Duration) uint64 { return uint64(now / time.Millisecond) })
	if v, _ := f.Read(5 * time.Millisecond); v != 5 {
		t.Fatalf("Func read = %v", v)
	}
	if err := f.Write(0, 1); err == nil {
		t.Fatal("write to Func register succeeded")
	}
}

func TestRegisterFileFaultsOnUnknown(t *testing.T) {
	rf := NewRegisterFile()
	if _, err := rf.Read(PkgEnergyStatus, 0); err == nil {
		t.Fatal("read of unimplemented MSR succeeded")
	}
	if err := rf.Write(PkgEnergyStatus, 0, 1); err == nil {
		t.Fatal("write of unimplemented MSR succeeded")
	}
}

func TestRegisterFileInstallAndAccess(t *testing.T) {
	rf := NewRegisterFile()
	rf.Install(RAPLPowerUnit, ReadOnly{R: NewStatic(0xA1003)})
	v, err := rf.Read(RAPLPowerUnit, 0)
	if err != nil || v != 0xA1003 {
		t.Fatalf("Read = %#x, %v", v, err)
	}
}

func newTestDriver() *Driver {
	rf := NewRegisterFile()
	rf.Install(RAPLPowerUnit, ReadOnly{R: NewStatic(0xA1003)})
	rf.Install(PkgPowerLimit, NewStatic(0))
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
	if err := d.SetWorldReadable(true); err != nil {
		t.Fatal(err)
	}
	dev, err := d.Open(0, user)
	if err != nil {
		t.Fatalf("open after chmod failed: %v", err)
	}
	// read-only handle: reads fine, writes denied
	if _, err := dev.Read(RAPLPowerUnit, 0); err != nil {
		t.Errorf("read on read-only handle: %v", err)
	}
	if err := dev.Write(PkgPowerLimit, 0, 1); !errors.Is(err, core.ErrPermission) {
		t.Errorf("write on read-only handle err = %v, want ErrPermission", err)
	}
}

func TestSetWorldReadableRequiresLoad(t *testing.T) {
	d := newTestDriver()
	if err := d.SetWorldReadable(true); err == nil {
		t.Fatal("chmod succeeded with no device nodes")
	}
}

func TestOpenUnknownCPU(t *testing.T) {
	d := newTestDriver()
	d.Load()
	if _, err := d.Open(99, Root); err == nil {
		t.Fatal("Open of nonexistent CPU succeeded")
	}
}

func TestRootHandleCanWrite(t *testing.T) {
	d := newTestDriver()
	d.Load()
	dev, err := d.Open(1, Root)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Write(PkgPowerLimit, 0, 0x8000); err != nil {
		t.Fatal(err)
	}
	if v, _ := dev.Read(PkgPowerLimit, 0); v != 0x8000 {
		t.Fatalf("written value = %#x", v)
	}
}

func TestSocketSharedRegisterFile(t *testing.T) {
	// CPUs 0 and 1 share a register file (same socket): a write through one
	// is visible through the other — RAPL's socket-wide scope.
	d := newTestDriver()
	d.Load()
	dev0, _ := d.Open(0, Root)
	dev1, _ := d.Open(1, Root)
	if err := dev0.Write(PkgPowerLimit, 0, 123); err != nil {
		t.Fatal(err)
	}
	if v, _ := dev1.Read(PkgPowerLimit, 0); v != 123 {
		t.Fatalf("socket sharing broken: CPU1 sees %v", v)
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
