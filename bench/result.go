package main

import (
	"fmt"
	"io"
	"runtime"
	"syscall"
	"time"
)

// metric is one reported number. Samples is the number of per-operation
// timings behind a median or tail (0 for counts and rates); Note says so
// when a tail had to fall back to a lower percentile than its name.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Note    string  `json:"note,omitempty"`
}

// section is the outcome of one workload's part of a run.
type section struct {
	Workload  string         `json:"workload"`
	Sizes     map[string]int `json:"sizes"`
	WallS     float64        `json:"wall_s"` // the timed part only
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	EndToEnd  []metric       `json:"end_to_end"`
	Layers    []metric       `json:"per_layer"`
}

func (s *section) e2e(name string, v float64, unit string, n int) {
	s.EndToEnd = append(s.EndToEnd, metric{Name: name, Value: v, Unit: unit, Samples: n})
}

func (s *section) layer(name string, v float64, unit string, n int) {
	s.Layers = append(s.Layers, metric{Name: name, Value: v, Unit: unit, Samples: n})
}

// own files a measurement that several workloads take under one name: as
// the end-to-end metric of that name when this section's workload is one
// of its producers, else as a per-layer metric with the workload appended.
func (s *section) own(name string, v float64, unit string, n int) {
	for _, m := range endToEndMetrics {
		if m.Name == name && m.owner(s.Workload) == s.Workload {
			s.e2e(name, v, unit, n)
			return
		}
	}
	s.layer(name+"."+s.Workload, v, unit, n)
}

// tail reports the named tail of a timing sample by the harness's rule:
// the wanted percentile when at least ten samples lie beyond it, else the
// highest percentile that has ten (the median, under a hundred samples),
// with a note saying which.
func tail(name string, xs []float64, want float64, unit string) metric {
	p := min(want, supportedTail(len(xs)))
	if p == 0 {
		p = 50
	}
	m := metric{Name: name, Value: quantile(sorted(xs), p/100), Unit: unit, Samples: len(xs)}
	if p < want {
		m.Note = fmt.Sprintf("p%g: %d samples do not support p%g", p, len(xs), want)
	}
	return m
}

func (s *section) get(name string) (metric, bool) {
	for _, list := range [][]metric{s.EndToEnd, s.Layers} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metric{}, false
}

func printMetrics(w io.Writer, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(w, "%s %v %s", m.Name, m.Value, m.Unit)
		if m.Samples > 0 {
			fmt.Fprintf(w, " n=%d", m.Samples)
		}
		if m.Note != "" {
			fmt.Fprintf(w, " (%s)", m.Note)
		}
		fmt.Fprintln(w)
	}
}

// procUsage is the process-level cost of a timed section: what the
// per-operation timings cannot show, such as work moved into the
// allocator or onto another core. It adds up over the intervals between
// start and stop, because a read section runs in two parts.
type procUsage struct {
	wall, cpu      time.Duration
	alloc, pauseNS uint64
	gcCycles       uint32
	heapSys        uint64

	started time.Time
	cpu0    time.Duration
	mem0    runtime.MemStats
}

func (u *procUsage) start() {
	runtime.ReadMemStats(&u.mem0)
	u.cpu0 = cpuTime()
	u.started = time.Now()
}

func (u *procUsage) stop() {
	u.wall += time.Since(u.started)
	u.cpu += cpuTime() - u.cpu0
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	u.alloc += now.TotalAlloc - u.mem0.TotalAlloc
	u.gcCycles += now.NumGC - u.mem0.NumGC
	u.pauseNS += now.PauseTotalNs - u.mem0.PauseTotalNs
	u.heapSys = max(u.heapSys, now.HeapSys)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// report adds the proc.*.<workload> layer metrics.
func (u *procUsage) report(s *section) {
	s.layer("proc.cpu_s."+s.Workload, u.cpu.Seconds(), "s", 0)
	s.layer("proc.alloc_mb."+s.Workload, float64(u.alloc)/(1<<20), "MB", 0)
	s.layer("proc.gc_cycles."+s.Workload, float64(u.gcCycles), "count", 0)
	s.layer("proc.gc_pause_ms."+s.Workload, float64(u.pauseNS)/1e6, "ms", 0)
	s.layer("proc.heap_peak_mb."+s.Workload, float64(u.heapSys)/(1<<20), "MB", 0)
}
