package nvml

import (
	"time"

	"envmon/internal/simrand"
)

// Library is the NVML entry point: the equivalent of libnvidia-ml, which
// answers no query before nvmlInit.
type Library struct {
	inited  bool
	devices []*Device
}

// NewLibrary returns an uninitialized library managing the given devices.
func NewLibrary(devices ...*Device) *Library {
	return &Library{devices: devices}
}

// Init mirrors nvmlInit(). Calling any query before Init yields
// ErrorUninitialized.
func (l *Library) Init() Return {
	l.inited = true
	return Success
}

// DeviceGetCount mirrors nvmlDeviceGetCount.
func (l *Library) DeviceGetCount() (int, Return) {
	if !l.inited {
		return 0, ErrorUninitialized
	}
	return len(l.devices), Success
}

// DeviceGetHandleByIndex mirrors nvmlDeviceGetHandleByIndex.
func (l *Library) DeviceGetHandleByIndex(i int) (*Device, Return) {
	if !l.inited {
		return nil, ErrorUninitialized
	}
	if i < 0 || i >= len(l.devices) {
		return nil, ErrorInvalidArgument
	}
	return l.devices[i], Success
}

// --- Device queries (the nvmlDeviceGet* family) ------------------------------

// GetPowerUsage mirrors nvmlDeviceGetPowerUsage: board power in milliwatts.
// Only Kepler parts support it ("the only NVIDIA GPUs which support power
// data collection are those based on the Kepler architecture"). The value
// refreshes every ~60 ms and carries the ±5 W sensor accuracy.
func (d *Device) GetPowerUsage(now time.Duration) (uint, Return) {
	if d.spec.Arch != Kepler {
		return 0, ErrorNotSupported
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.lost {
		return 0, ErrorGPUIsLost
	}
	d.advanceTo(now)
	// Sensor error: deterministic per update cell, normal with sigma such
	// that ~3 sigma spans the ±5 W vendor accuracy band, clamped to it.
	cell := int64(now / PowerUpdatePeriod)
	rng := simrand.New(d.seed ^ 0xB0A4D ^ uint64(cell))
	errW := rng.Normal(0, PowerAccuracyW/3)
	if errW > PowerAccuracyW {
		errW = PowerAccuracyW
	}
	if errW < -PowerAccuracyW {
		errW = -PowerAccuracyW
	}
	w := d.boardW + errW
	if w < 0 {
		w = 0
	}
	return uint(w * 1000), Success
}

// GetTemperature mirrors nvmlDeviceGetTemperature (whole degrees C).
func (d *Device) GetTemperature(sensor TemperatureSensor, now time.Duration) (uint, Return) {
	if sensor != TemperatureGPU {
		return 0, ErrorInvalidArgument
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.lost {
		return 0, ErrorGPUIsLost
	}
	d.advanceTo(now)
	return uint(d.thermal.Temperature()), Success
}

// GetFanSpeed mirrors nvmlDeviceGetFanSpeed: percent of max RPM.
func (d *Device) GetFanSpeed(now time.Duration) (uint, Return) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.advanceTo(now)
	rpm := d.fan.RPM(d.thermal.Temperature())
	pct := 100 * (rpm - d.fan.MinRPM) / (d.fan.MaxRPM - d.fan.MinRPM)
	return uint(pct), Success
}

// FanRPM reports the absolute fan speed (Table I's "Speed (In RPM)" row).
func (d *Device) FanRPM(now time.Duration) (float64, Return) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.advanceTo(now)
	return d.fan.RPM(d.thermal.Temperature()), Success
}

// GetMemoryInfo mirrors nvmlDeviceGetMemoryInfo. Used memory follows the
// workload: a base driver reservation plus the working set while device
// phases (transfer/compute) are active.
func (d *Device) GetMemoryInfo(now time.Duration) (MemoryInfo, Return) {
	d.mu.Lock()
	defer d.mu.Unlock()
	a := d.activityAt(now)
	frac := a.Memory
	if a.Compute > frac {
		frac = a.Compute
	}
	if a.PCIe > frac {
		frac = a.PCIe
	}
	base := uint64(200 << 20) // driver + context
	used := base + uint64(frac*0.6*float64(d.spec.MemoryBytes))
	if used > d.spec.MemoryBytes {
		used = d.spec.MemoryBytes
	}
	return MemoryInfo{
		TotalBytes: d.spec.MemoryBytes,
		UsedBytes:  used,
		FreeBytes:  d.spec.MemoryBytes - used,
	}, Success
}
