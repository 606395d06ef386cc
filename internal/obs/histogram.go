package obs

import (
	"sort"
	"time"
)

// DefLatencyBuckets are the default upper bounds (seconds) for latency
// histograms: 10 µs to 10 s, roughly half-decade steps. They bracket
// everything this stack times — a 30 µs MSR read, a 14.2 ms SysMgmt API
// query, a multi-second full-history query.
var DefLatencyBuckets = []float64{
	10e-6, 50e-6, 100e-6, 500e-6,
	1e-3, 5e-3, 10e-3, 50e-3, 100e-3, 500e-3,
	1, 5, 10,
}

// Histogram is a fixed-bucket cumulative histogram. Observe is lock-free
// and allocation-free: one atomic add in the owning bucket, one in the
// total count, and a CAS-add on the sum. Bucket bounds are fixed at
// creation — no resizing, no quantile sketching — so the cost is constant
// and the exposition is exact for the recorded bounds.
//
// Operations on a nil *Histogram are no-ops, so uninstrumented call sites
// need no guards.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf is counts[len(bounds)]
	counts []Counter // len(bounds)+1, per-bucket (non-cumulative)
	count  Counter
	sum    atomicFloat
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]Counter, len(bs)+1)}
}

// Observe records v (seconds, by convention).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket lists are short (~13) and the common latencies
	// land early; a branch-predicted scan beats binary search at this size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Inc()
	h.count.Inc()
	h.sum.Add(v)
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h != nil {
		h.Observe(d.Seconds())
	}
}

// Sum reports the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}
