// Package workload models the applications the paper profiles as
// time-varying activity signals.
//
// The paper's figures are power traces of real codes: the MMPS interconnect
// benchmark on Blue Gene/Q (Figs. 1–2), Gaussian elimination on a Sandy
// Bridge CPU (Fig. 3) and on 128 Xeon Phis (Fig. 8), and NOOP / vector-add
// CUDA kernels on a K20 (Figs. 4–5). We cannot run those binaries, but the
// figures are fully determined by each code's *phase structure* — when it
// computes, when it moves data, when it idles — so a workload here is a pure
// function from simulated time to per-component utilization in [0, 1]. The
// device power models (internal/power) turn utilization into watts.
package workload

import (
	"fmt"
	"time"
)

// Activity is instantaneous utilization of each hardware component,
// each in [0, 1]. Interpretation is per-device: on a CPU "Compute" is core
// activity; on a GPU it is SM occupancy; on a Phi it is the 61 cores.
type Activity struct {
	Compute float64 // processor cores / SMs
	Memory  float64 // DRAM / GDDR traffic
	Network float64 // interconnect (BG/Q torus, cluster fabric)
	PCIe    float64 // host<->device transfers
	HostCPU float64 // host-side processor (for accelerator workloads)
}

// clamp01 limits v to [0, 1].
func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Clamped returns a copy of a with every component clamped to [0, 1].
func (a Activity) Clamped() Activity {
	return Activity{
		Compute: clamp01(a.Compute),
		Memory:  clamp01(a.Memory),
		Network: clamp01(a.Network),
		PCIe:    clamp01(a.PCIe),
		HostCPU: clamp01(a.HostCPU),
	}
}

// Scale returns a with every component multiplied by f and clamped.
func (a Activity) Scale(f float64) Activity {
	return Activity{
		Compute: a.Compute * f,
		Memory:  a.Memory * f,
		Network: a.Network * f,
		PCIe:    a.PCIe * f,
		HostCPU: a.HostCPU * f,
	}.Clamped()
}

// Workload is a deterministic activity signal of finite duration. After
// Duration the workload is over and ActivityAt must return the zero
// Activity (idle).
type Workload interface {
	// Name identifies the workload (used in trace metadata and reports).
	Name() string
	// Duration is the nominal run time of the workload.
	Duration() time.Duration
	// ActivityAt reports utilization at time t since the workload started.
	// t outside [0, Duration) yields zero activity.
	ActivityAt(t time.Duration) Activity
	// PhaseAt names the phase active at time t ("idle" outside the run).
	PhaseAt(t time.Duration) string
}

// Phase is one segment of a phased workload.
type Phase struct {
	Name string
	Dur  time.Duration
	Act  Activity
}

// Phased is a workload built from consecutive phases. It implements
// Workload.
type Phased struct {
	name   string
	phases []Phase
	total  time.Duration
}

// NewPhased builds a phased workload. It panics on an empty phase list or a
// non-positive phase duration, since a silent zero-length phase would shift
// every later phase boundary.
func NewPhased(name string, phases ...Phase) *Phased {
	if len(phases) == 0 {
		panic("workload: NewPhased with no phases")
	}
	var total time.Duration
	for _, p := range phases {
		if p.Dur <= 0 {
			panic(fmt.Sprintf("workload: phase %q has non-positive duration %v", p.Name, p.Dur))
		}
		total += p.Dur
	}
	return &Phased{name: name, phases: phases, total: total}
}

// Name implements Workload.
func (w *Phased) Name() string { return w.name }

// Duration implements Workload.
func (w *Phased) Duration() time.Duration { return w.total }

// phaseIndex locates the phase containing t, or -1 outside the run.
func (w *Phased) phaseIndex(t time.Duration) int {
	if t < 0 || t >= w.total {
		return -1
	}
	var acc time.Duration
	for i, p := range w.phases {
		acc += p.Dur
		if t < acc {
			return i
		}
	}
	return -1
}

// ActivityAt implements Workload.
func (w *Phased) ActivityAt(t time.Duration) Activity {
	i := w.phaseIndex(t)
	if i < 0 {
		return Activity{}
	}
	return w.phases[i].Act
}

// PhaseAt implements Workload.
func (w *Phased) PhaseAt(t time.Duration) string {
	i := w.phaseIndex(t)
	if i < 0 {
		return "idle"
	}
	return w.phases[i].Name
}

// PhaseWindow reports the [start, end) interval of the first phase with the
// given name, and whether it exists.
func (w *Phased) PhaseWindow(name string) (start, end time.Duration, ok bool) {
	var acc time.Duration
	for _, p := range w.phases {
		if p.Name == name {
			return acc, acc + p.Dur, true
		}
		acc += p.Dur
	}
	return 0, 0, false
}

// --- Combinators ------------------------------------------------------------

// modulated wraps a workload with a periodic multiplicative dip — the
// rhythmic structure visible in the paper's Figure 3.
type modulated struct {
	Workload
	period, dipLen time.Duration
	dipFactor      float64
	spikeBoost     float64
}

// WithRhythm overlays a periodic dip on w's compute activity: every period,
// activity falls to dipFactor of nominal for dipLen (a synchronization /
// pivot-broadcast stall), followed by a brief spike of (1 + spikeBoost)
// right after the dip (catch-up burst). The paper observes exactly this
// pattern for Gaussian elimination under RAPL: "the rhythmic drop of about
// 5 Watts ... between these drops there are tiny spikes".
func WithRhythm(w Workload, period, dipLen time.Duration, dipFactor, spikeBoost float64) Workload {
	if period <= 0 || dipLen <= 0 || dipLen >= period {
		panic("workload: WithRhythm needs 0 < dipLen < period")
	}
	return &modulated{Workload: w, period: period, dipLen: dipLen, dipFactor: dipFactor, spikeBoost: spikeBoost}
}

func (m *modulated) ActivityAt(t time.Duration) Activity {
	a := m.Workload.ActivityAt(t)
	if a == (Activity{}) {
		return a
	}
	pos := t % m.period
	switch {
	case pos < m.dipLen:
		a.Compute *= m.dipFactor
		a.Memory *= m.dipFactor
	case pos < m.dipLen+m.dipLen/2:
		a.Compute *= 1 + m.spikeBoost
	}
	return a.Clamped()
}

// --- The paper's workloads --------------------------------------------------

// Sleep returns an all-idle workload of duration d — the paper's "no-op"
// host-side baseline.
func Sleep(d time.Duration) Workload {
	return NewPhased("sleep", Phase{Name: "sleep", Dur: d, Act: Activity{}})
}

// MMPS models the ALCF "million messages per second" interconnect benchmark
// (paper Figs. 1–2): sustained high network activity with moderate compute
// and memory traffic for the given duration.
func MMPS(d time.Duration) Workload {
	return NewPhased("mmps",
		Phase{Name: "warmup", Dur: d / 20, Act: Activity{Compute: 0.5, Memory: 0.3, Network: 0.5}},
		Phase{Name: "messaging", Dur: d - d/20, Act: Activity{Compute: 0.7, Memory: 0.45, Network: 0.95}},
	)
}

// GaussElim models a blocked Gaussian elimination on a CPU (paper Fig. 3):
// compute-bound with memory traffic, overlaid with the rhythmic
// synchronization dips the paper observes (~5 W drops with small spikes in
// between). compute is the total compute time; the rhythm period scales
// with problem size.
func GaussElim(compute time.Duration) Workload {
	base := NewPhased("gauss",
		Phase{Name: "factorize", Dur: compute, Act: Activity{Compute: 0.92, Memory: 0.55}},
	)
	// One dip roughly every 5 s of compute, 400 ms long, to 85 % of nominal,
	// with a 6 % catch-up spike: calibrated so the Sandy Bridge package
	// model's ~45 W dynamic swing yields ≈5 W dips as in Fig. 3.
	return WithRhythm(base, 5*time.Second, 400*time.Millisecond, 0.85, 0.06)
}

// NoopKernel models the paper's Fig. 4 workload: a trivial CUDA kernel
// launched in a loop. The device is occupied (launch overhead keeps SMs
// lightly busy) but does almost no arithmetic; board power levels off low.
func NoopKernel(d time.Duration) Workload {
	return NewPhased("noop",
		Phase{Name: "kernel-loop", Dur: d, Act: Activity{Compute: 0.12, Memory: 0.02, HostCPU: 0.25}},
	)
}

// VectorAdd models the paper's Fig. 5 workload: ~10 s of host-side data
// generation (device idle), a PCIe transfer, then a long memory-bound
// vector addition on the device, then a short result copy-back.
func VectorAdd(hostGen, compute time.Duration) Workload {
	transfer := compute / 20
	if transfer < time.Second {
		transfer = time.Second
	}
	return NewPhased("vecadd",
		Phase{Name: "host-generate", Dur: hostGen, Act: Activity{HostCPU: 0.9}},
		Phase{Name: "h2d-transfer", Dur: transfer, Act: Activity{PCIe: 0.9, HostCPU: 0.3, Memory: 0.3}},
		// Vector addition is memory-bound: GDDR saturated, SMs mostly
		// stalled on loads — the K20 lands near 150 W, not TDP (Fig. 5).
		Phase{Name: "device-compute", Dur: compute, Act: Activity{Compute: 0.55, Memory: 0.95, HostCPU: 0.1}},
		Phase{Name: "d2h-transfer", Dur: transfer / 2, Act: Activity{PCIe: 0.9, HostCPU: 0.3}},
	)
}

// PhiGauss models the paper's Fig. 8 workload: Gaussian elimination
// offloaded to Xeon Phi cards on Stampede. Host-side data generation for
// about gen (the paper: "data generation takes place for about the first
// 100 seconds"), then transfer and device compute.
func PhiGauss(gen, compute time.Duration) Workload {
	transfer := 8 * time.Second
	return NewPhased("phi-gauss",
		Phase{Name: "host-generate", Dur: gen, Act: Activity{HostCPU: 0.9, PCIe: 0.05}},
		Phase{Name: "h2d-transfer", Dur: transfer, Act: Activity{PCIe: 0.95, HostCPU: 0.4, Memory: 0.4}},
		Phase{Name: "device-compute", Dur: compute, Act: Activity{Compute: 0.9, Memory: 0.6, HostCPU: 0.15, Network: 0.3}},
	)
}

// FixedRuntime returns the Table III toy application: a pure compute spin
// "designed to run for exactly the same amount of time regardless of the
// number of processors".
func FixedRuntime(d time.Duration) Workload {
	return NewPhased("fixed-runtime",
		Phase{Name: "spin", Dur: d, Act: Activity{Compute: 0.8, Memory: 0.2}},
	)
}
