// Package msr simulates Intel model-specific registers and the Linux MSR
// driver through which the paper collects RAPL data.
//
// The paper (Section II.B) describes the two access paths on real hardware:
// a perf_event kernel interface (Linux >= 3.14, newer than most 2015
// distributions shipped) and the msr.ko driver, which "creates a character
// device for each logical processor under /dev/cpu/*/msr" and "must be
// given the correct read-only, root-only access before it is accessible by
// any process running on the system". We model the register file, the
// driver's device nodes, and that permission gate: only root may open a
// device node.
//
// The model is read-only, as the paper's collection is. Registers are
// behavior objects: a static register holds a value; a dynamic register
// computes its value from simulated time on every read (how the RAPL
// energy-status counters are wired up by internal/rapl).
package msr

import (
	"fmt"
	"sync"
	"time"

	"envmon/internal/core"
)

// Address is an MSR address. The RAPL addresses match the Intel SDM.
type Address uint32

// RAPL-related MSR addresses (Intel SDM vol. 3B, table 35).
const (
	RAPLPowerUnit    Address = 0x606
	PkgPowerLimit    Address = 0x610
	PkgEnergyStatus  Address = 0x611
	DRAMPowerLimit   Address = 0x618
	DRAMEnergyStatus Address = 0x619
	PP0PowerLimit    Address = 0x638
	PP0EnergyStatus  Address = 0x639
	PP1PowerLimit    Address = 0x640
	PP1EnergyStatus  Address = 0x641
)

// ReadCost is the per-query latency of a direct MSR read, as measured by
// the paper: "about 0.03 ms per query ... the fastest access time that we
// have seen for all of the hardware discussed in this paper".
const ReadCost = 30 * time.Microsecond

// Register is one MSR's behavior.
type Register interface {
	// Read returns the register value at simulated time now.
	Read(now time.Duration) (uint64, error)
}

// Static is a register holding a fixed value.
type Static uint64

// Read implements Register.
func (s Static) Read(time.Duration) (uint64, error) { return uint64(s), nil }

// Func is a dynamic register computed from simulated time.
type Func func(now time.Duration) uint64

// Read implements Register.
func (f Func) Read(now time.Duration) (uint64, error) { return f(now), nil }

// RegisterFile is the MSR space of one logical processor (in RAPL's case,
// shared across the socket's processors — the paper: "the collected metrics
// are for the whole socket").
type RegisterFile struct {
	mu   sync.RWMutex
	regs map[Address]Register
}

// NewRegisterFile returns an empty register file.
func NewRegisterFile() *RegisterFile {
	return &RegisterFile{regs: make(map[Address]Register)}
}

// Install binds a register implementation at an address, replacing any
// previous binding.
func (rf *RegisterFile) Install(addr Address, r Register) {
	rf.mu.Lock()
	defer rf.mu.Unlock()
	rf.regs[addr] = r
}

// Read reads an address; unknown addresses fault like rdmsr on a missing
// MSR (#GP), reported as an error.
func (rf *RegisterFile) Read(addr Address, now time.Duration) (uint64, error) {
	rf.mu.RLock()
	r, ok := rf.regs[addr]
	rf.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("msr: #GP reading unimplemented MSR %#x", uint32(addr))
	}
	return r.Read(now)
}

// Credentials model the caller's identity for the permission gate.
type Credentials struct {
	UID int // 0 is root
}

// Root is the superuser credential.
var Root = Credentials{UID: 0}

// Driver is the msr.ko kernel module: it owns the per-CPU device nodes,
// which only root may open.
type Driver struct {
	mu     sync.Mutex
	loaded bool
	files  map[int]*RegisterFile // cpu -> registers
}

// NewDriver returns an unloaded driver over the given per-CPU register
// files. CPUs on one socket typically share a RegisterFile.
func NewDriver(files map[int]*RegisterFile) *Driver {
	return &Driver{files: files}
}

// Load loads the module (modprobe msr). Idempotent.
func (d *Driver) Load() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.loaded = true
}

// Device is an open handle to /dev/cpu/<cpu>/msr.
type Device struct {
	regs *RegisterFile
}

// Open opens the device node for a CPU with the given credentials. Errors
// mirror the real failure modes: ENOENT when the driver is not loaded,
// EACCES (core.ErrPermission) for non-root callers.
func (d *Driver) Open(cpu int, cred Credentials) (*Device, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.loaded {
		return nil, fmt.Errorf("msr: /dev/cpu/%d/msr: no such file or directory (driver not loaded)", cpu)
	}
	rf, ok := d.files[cpu]
	if !ok {
		return nil, fmt.Errorf("msr: no such CPU %d", cpu)
	}
	if cred.UID != 0 {
		return nil, fmt.Errorf("msr: /dev/cpu/%d/msr: %w", cpu, core.ErrPermission)
	}
	return &Device{regs: rf}, nil
}

// Read reads an MSR through the device (pread on the character device).
func (dev *Device) Read(addr Address, now time.Duration) (uint64, error) {
	return dev.regs.Read(addr, now)
}
