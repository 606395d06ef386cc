package papi

import (
	"fmt"
	"time"

	"envmon/internal/mic"
	"envmon/internal/nvml"
	"envmon/internal/rapl"
)

// EventKind distinguishes accumulating counters (zeroed by Start, read as
// deltas — RAPL energy) from instantaneous gauges (read raw — NVML power,
// temperatures).
type EventKind int

const (
	Counter EventKind = iota
	Gauge
)

// --- RAPL component -----------------------------------------------------------

// RAPLComponent exposes the paper's Table II planes as PAPI native events
// in nanojoules, the real PAPI rapl component's unit.
type RAPLComponent struct {
	socket *rapl.Socket
}

// NewRAPLComponent wraps a socket.
func NewRAPLComponent(s *rapl.Socket) *RAPLComponent {
	return &RAPLComponent{socket: s}
}

// Name implements Component.
func (c *RAPLComponent) Name() string { return "rapl" }

// raplEvents maps native event names to planes.
var raplEvents = map[string]rapl.Domain{
	"PACKAGE_ENERGY:PACKAGE0": rapl.PKG,
	"PP0_ENERGY:PACKAGE0":     rapl.PP0,
	"PP1_ENERGY:PACKAGE0":     rapl.PP1,
	"DRAM_ENERGY:PACKAGE0":    rapl.DRAM,
}

// Events implements Component.
func (c *RAPLComponent) Events() []string {
	return []string{
		"DRAM_ENERGY:PACKAGE0",
		"PACKAGE_ENERGY:PACKAGE0",
		"PP0_ENERGY:PACKAGE0",
		"PP1_ENERGY:PACKAGE0",
	}
}

// Kind implements Component: all RAPL events are counters.
func (c *RAPLComponent) Kind(string) EventKind { return Counter }

// Read implements Component: cumulative energy in nanojoules.
func (c *RAPLComponent) Read(event string, now time.Duration) (int64, error) {
	d, ok := raplEvents[event]
	if !ok {
		return 0, fmt.Errorf("papi: rapl has no event %q", event)
	}
	return int64(c.socket.EnergyJoules(d, now) * 1e9), nil
}

// --- NVML component -----------------------------------------------------------

// NVMLComponent exposes a GPU's gauges the way PAPI's nvml component does:
// power in milliwatts, temperature in degrees C, fan in percent.
type NVMLComponent struct {
	dev *nvml.Device
}

// NewNVMLComponent wraps a device.
func NewNVMLComponent(dev *nvml.Device) *NVMLComponent {
	return &NVMLComponent{dev: dev}
}

// Name implements Component.
func (c *NVMLComponent) Name() string { return "nvml" }

// deviceToken turns the device name into the event-name token real PAPI
// uses ("Tesla_K20").
func (c *NVMLComponent) deviceToken() string {
	name := c.dev.Spec().Name
	out := make([]byte, len(name))
	for i := 0; i < len(name); i++ {
		if name[i] == ' ' {
			out[i] = '_'
		} else {
			out[i] = name[i]
		}
	}
	return string(out)
}

// Events implements Component.
func (c *NVMLComponent) Events() []string {
	tok := c.deviceToken()
	return []string{
		tok + ":fan_speed",
		tok + ":power",
		tok + ":temperature",
	}
}

// Kind implements Component: NVML events are instantaneous gauges.
func (c *NVMLComponent) Kind(string) EventKind { return Gauge }

// Read implements Component.
func (c *NVMLComponent) Read(event string, now time.Duration) (int64, error) {
	tok := c.deviceToken()
	switch event {
	case tok + ":power":
		mw, ret := c.dev.GetPowerUsage(now)
		if ret != nvml.Success {
			return 0, fmt.Errorf("papi: nvml power: %w", ret.Error())
		}
		return int64(mw), nil
	case tok + ":temperature":
		t, ret := c.dev.GetTemperature(nvml.TemperatureGPU, now)
		if ret != nvml.Success {
			return 0, fmt.Errorf("papi: nvml temperature: %w", ret.Error())
		}
		return int64(t), nil
	case tok + ":fan_speed":
		pct, ret := c.dev.GetFanSpeed(now)
		if ret != nvml.Success {
			return 0, fmt.Errorf("papi: nvml fan: %w", ret.Error())
		}
		return int64(pct), nil
	default:
		return 0, fmt.Errorf("papi: nvml has no event %q", event)
	}
}

// --- MIC component ------------------------------------------------------------

// MICComponent exposes a Xeon Phi's power and thermals the way PAPI's
// micpower component does (reading the same data the MICRAS daemon
// serves): power in microwatts, temperatures in degrees C.
type MICComponent struct {
	card *mic.Card
}

// NewMICComponent wraps a card.
func NewMICComponent(card *mic.Card) *MICComponent {
	return &MICComponent{card: card}
}

// Name implements Component.
func (c *MICComponent) Name() string { return "micpower" }

// Events implements Component.
func (c *MICComponent) Events() []string {
	return []string{"die_temp", "tot0", "vccp"}
}

// Kind implements Component.
func (c *MICComponent) Kind(string) EventKind { return Gauge }

// Read implements Component. The event is validated before the card is
// touched, so a bad name never costs an SMC snapshot.
func (c *MICComponent) Read(event string, now time.Duration) (int64, error) {
	switch event {
	case "tot0", "die_temp", "vccp":
	default:
		return 0, fmt.Errorf("papi: micpower has no event %q", event)
	}
	snap := c.card.SnapshotAt(now)
	switch event {
	case "tot0":
		return int64(snap.PowerMW) * 1000, nil // µW
	case "die_temp":
		return int64(snap.DieCx10) / 10, nil
	default: // vccp
		return int64(snap.CoreMV), nil
	}
}
