package nvml

import (
	"fmt"
	"time"

	"envmon/internal/core"
)

// Collector adapts an NVML device to the vendor-neutral core.Collector
// interface MonEQ polls. Each Collect issues the GetPowerUsage,
// GetTemperature, GetFanSpeed, and GetMemoryInfo calls; the modeled cost is
// the paper's 1.3 ms per collection (which at MonEQ's ~100 ms polling is
// the ~1.25% overhead the paper reports).
type Collector struct {
	lib     *Library
	dev     *Device
	queries int
}

// NewCollector returns a collector for device index idx of an initialized
// library.
func NewCollector(lib *Library, idx int) (*Collector, error) {
	dev, ret := lib.DeviceGetHandleByIndex(idx)
	if ret != Success {
		return nil, fmt.Errorf("nvml: device %d: %w", idx, ret.Error())
	}
	return &Collector{lib: lib, dev: dev}, nil
}

// Device exposes the underlying handle.
func (c *Collector) Device() *Device { return c.dev }

// Platform implements core.Collector.
func (c *Collector) Platform() core.Platform { return core.NVML }

// Method implements core.Collector.
func (c *Collector) Method() string { return "NVML" }

// Cost implements core.Collector.
func (c *Collector) Cost() time.Duration { return QueryCost }

// MinInterval implements core.Collector: the board power sensor refreshes
// every ~60 ms; polling faster returns duplicates.
func (c *Collector) MinInterval() time.Duration { return PowerUpdatePeriod }

// Queries reports how many Collect calls have been made.
func (c *Collector) Queries() int { return c.queries }

// CollectInto implements core.Collector.
func (c *Collector) CollectInto(buf []core.Reading, now time.Duration) ([]core.Reading, error) {
	c.queries++
	out := buf[:0]
	mw, ret := c.dev.GetPowerUsage(now)
	if ret != Success {
		return buf[:0], fmt.Errorf("nvml: GetPowerUsage: %w", ret.Error())
	}
	out = append(out, core.Reading{
		Cap:   core.Capability{Component: core.Total, Metric: core.Power},
		Value: float64(mw) / 1000, Unit: "W", Time: now,
	})
	if temp, ret := c.dev.GetTemperature(TemperatureGPU, now); ret == Success {
		out = append(out, core.Reading{
			Cap:   core.Capability{Component: core.Die, Metric: core.Temperature},
			Value: float64(temp), Unit: "degC", Time: now,
		})
	}
	if rpm, ret := c.dev.FanRPM(now); ret == Success {
		out = append(out, core.Reading{
			Cap:   core.Capability{Component: core.Fan, Metric: core.FanSpeed},
			Value: rpm, Unit: "RPM", Time: now,
		})
	}
	if mem, ret := c.dev.GetMemoryInfo(now); ret == Success {
		out = append(out,
			core.Reading{
				Cap:   core.Capability{Component: core.Memory, Metric: core.MemoryUsed},
				Value: float64(mem.UsedBytes), Unit: "B", Time: now,
			},
			core.Reading{
				Cap:   core.Capability{Component: core.Memory, Metric: core.MemoryFree},
				Value: float64(mem.FreeBytes), Unit: "B", Time: now,
			})
	}
	return out, nil
}
