// Package micras simulates the MICRAS daemon of the Xeon Phi software
// stack (paper Section II.D): "On the device ... this daemon exposes access
// to environmental data through pseudo-files mounted on a virtual file
// system. In this way, when one wishes to collect data, it's simply a
// process of reading the appropriate file and parsing the data."
//
// The virtual file system mimics the sysfs layout of the real driver
// (/sys/class/micras/*): each file renders a key/value text view of the
// card's current SMC state at read time. Reads cost ~0.04 ms — nearly the
// same as a raw RAPL MSR read, "because the implementation on both is
// essentially the same; the Xeon Phi actually uses RAPL internally".
//
// Because the daemon's data "is only accessible by the portion of code
// which is running on the device", a polling consumer unavoidably contends
// with the application: opening a Collector marks the card daemon-busy,
// adding the small on-card collection cost, until the Collector is closed.
package micras

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"envmon/internal/core"
	"envmon/internal/mic"
)

// Root is the mount point of the pseudo-files.
const Root = "/sys/class/micras"

// FS is the daemon's virtual file system over one card.
type FS struct {
	card  *mic.Card
	files map[string]func(now time.Duration) string
	reads int
}

// NewFS mounts the pseudo-files for a card.
func NewFS(card *mic.Card) *FS {
	fs := &FS{card: card, files: make(map[string]func(time.Duration) string)}
	fs.files[Root+"/power"] = func(now time.Duration) string {
		snap := card.SnapshotAt(now)
		uw := uint64(snap.PowerMW) * 1000
		var b strings.Builder
		fmt.Fprintf(&b, "tot0: %d\n", uw)               // total board power, µW
		fmt.Fprintf(&b, "inst: %d\n", uw)               // instantaneous reading
		fmt.Fprintf(&b, "imax: %d\n", uint64(245e6))    // card power budget, µW
		fmt.Fprintf(&b, "vccp: %d\n", int(snap.CoreMV)) // core rail, mV
		fmt.Fprintf(&b, "vddg: %d\n", int(snap.MemMV))  // memory rail, mV
		return b.String()
	}
	fs.files[Root+"/temp"] = func(now time.Duration) string {
		snap := card.SnapshotAt(now)
		var b strings.Builder
		fmt.Fprintf(&b, "die: %d\n", snap.DieCx10)
		fmt.Fprintf(&b, "gddr: %d\n", snap.GDDRCx10)
		fmt.Fprintf(&b, "fanin: %d\n", snap.IntakeCx10)
		fmt.Fprintf(&b, "fanout: %d\n", snap.ExhaustCx10)
		return b.String()
	}
	fs.files[Root+"/freq"] = func(now time.Duration) string {
		snap := card.SnapshotAt(now)
		return fmt.Sprintf("core: %d\n", uint64(snap.CoreMHz)*1000) // kHz
	}
	fs.files[Root+"/mem"] = func(now time.Duration) string {
		snap := card.SnapshotAt(now)
		var b strings.Builder
		fmt.Fprintf(&b, "total: %d\n", uint64(snap.TotalMB)<<10) // kB
		fmt.Fprintf(&b, "used: %d\n", uint64(snap.UsedMB)<<10)
		fmt.Fprintf(&b, "free: %d\n", uint64(snap.TotalMB-snap.UsedMB)<<10)
		fmt.Fprintf(&b, "speed: %d\n", snap.MemKTps) // kT/s
		return b.String()
	}
	fs.files[Root+"/fan"] = func(now time.Duration) string {
		snap := card.SnapshotAt(now)
		return fmt.Sprintf("rpm: %d\n", snap.FanRPM)
	}
	fs.files[Root+"/corecount"] = func(time.Duration) string {
		return fmt.Sprintf("%d\n", mic.Cores)
	}
	fs.files[Root+"/version"] = func(time.Duration) string {
		return "micras 1.0 (envmon simulated)\n"
	}
	return fs
}

// List returns the mounted paths, sorted.
func (fs *FS) List() []string {
	out := make([]string, 0, len(fs.files))
	for p := range fs.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Reads reports how many file reads have been served.
func (fs *FS) Reads() int { return fs.reads }

// ReadFile renders a pseudo-file's content at simulated time now.
func (fs *FS) ReadFile(path string, now time.Duration) ([]byte, error) {
	gen, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("micras: open %s: no such file or directory", path)
	}
	fs.reads++
	return []byte(gen(now)), nil
}

// ParseKV parses the "key: value" lines of a pseudo-file.
func ParseKV(content []byte) (map[string]int64, error) {
	out := make(map[string]int64)
	for ln, line := range strings.Split(strings.TrimSpace(string(content)), "\n") {
		if line == "" {
			continue
		}
		key, val, found := strings.Cut(line, ":")
		if !found {
			return nil, fmt.Errorf("micras: line %d: no separator in %q", ln+1, line)
		}
		n, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("micras: line %d: bad value in %q: %w", ln+1, line, err)
		}
		out[strings.TrimSpace(key)] = n
	}
	return out, nil
}

// Collector reads the daemon's pseudo-files on the device side. It
// implements core.Collector. While open, it holds the card's daemon-busy
// contention cost; Close releases it.
type Collector struct {
	core.Mechanism
	fs      *FS
	closed  bool
	queries int
}

// NewCollector opens a device-side polling session against the daemon.
func NewCollector(fs *FS) *Collector {
	fs.card.SetDaemonBusy(true)
	return &Collector{Mechanism: Daemon, fs: fs}
}

// Close ends the polling session, releasing the on-card contention.
func (c *Collector) Close() {
	if !c.closed {
		c.closed = true
		c.fs.card.SetDaemonBusy(false)
	}
}

// Queries reports how many Collect calls have been made.
func (c *Collector) Queries() int { return c.queries }

// CollectInto implements core.Collector by reading and parsing the power,
// temp, mem, and fan pseudo-files. Unlike the register-read
// paths, the daemon path renders and parses text per poll, so the file and
// map allocations remain; only the reading slice is reused.
func (c *Collector) CollectInto(buf []core.Reading, now time.Duration) ([]core.Reading, error) {
	out := buf[:0]
	if c.closed {
		return buf[:0], fmt.Errorf("micras: collector is closed")
	}
	c.queries++

	powerB, err := c.fs.ReadFile(Root+"/power", now)
	if err != nil {
		return buf[:0], err
	}
	kv, err := ParseKV(powerB)
	if err != nil {
		return buf[:0], err
	}
	out = append(out,
		core.Reading{Cap: core.Capability{Component: core.Total, Metric: core.Power}, Value: float64(kv["tot0"]) / 1e6, Unit: "W", Time: now},
		core.Reading{Cap: core.Capability{Component: core.Processor, Metric: core.Voltage}, Value: float64(kv["vccp"]) / 1000, Unit: "V", Time: now},
		core.Reading{Cap: core.Capability{Component: core.Memory, Metric: core.Voltage}, Value: float64(kv["vddg"]) / 1000, Unit: "V", Time: now},
	)

	tempB, err := c.fs.ReadFile(Root+"/temp", now)
	if err != nil {
		return buf[:0], err
	}
	if kv, err = ParseKV(tempB); err != nil {
		return buf[:0], err
	}
	out = append(out,
		core.Reading{Cap: core.Capability{Component: core.Die, Metric: core.Temperature}, Value: float64(kv["die"]) / 10, Unit: "degC", Time: now},
		core.Reading{Cap: core.Capability{Component: core.DDR, Metric: core.Temperature}, Value: float64(kv["gddr"]) / 10, Unit: "degC", Time: now},
		core.Reading{Cap: core.Capability{Component: core.Intake, Metric: core.Temperature}, Value: float64(kv["fanin"]) / 10, Unit: "degC", Time: now},
		core.Reading{Cap: core.Capability{Component: core.Exhaust, Metric: core.Temperature}, Value: float64(kv["fanout"]) / 10, Unit: "degC", Time: now},
	)

	memB, err := c.fs.ReadFile(Root+"/mem", now)
	if err != nil {
		return buf[:0], err
	}
	if kv, err = ParseKV(memB); err != nil {
		return buf[:0], err
	}
	out = append(out,
		core.Reading{Cap: core.Capability{Component: core.Memory, Metric: core.MemoryUsed}, Value: float64(kv["used"]) * 1024, Unit: "B", Time: now},
		core.Reading{Cap: core.Capability{Component: core.Memory, Metric: core.MemoryFree}, Value: float64(kv["free"]) * 1024, Unit: "B", Time: now},
		core.Reading{Cap: core.Capability{Component: core.Memory, Metric: core.MemorySpeed}, Value: float64(kv["speed"]), Unit: "kT/s", Time: now},
	)

	fanB, err := c.fs.ReadFile(Root+"/fan", now)
	if err != nil {
		return buf[:0], err
	}
	if kv, err = ParseKV(fanB); err != nil {
		return buf[:0], err
	}
	out = append(out,
		core.Reading{Cap: core.Capability{Component: core.Fan, Metric: core.FanSpeed}, Value: float64(kv["rpm"]), Unit: "RPM", Time: now},
	)
	return out, nil
}
