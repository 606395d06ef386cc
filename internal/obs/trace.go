package obs

import "time"

// Pipeline tracing: per-stage span accounting for the collection and
// storage pipeline (collect -> resilience -> ingest -> wal_append ->
// compaction -> query). Each stage records three things:
//
//   - a wall-clock latency histogram (envmon_pipeline_seconds) — what the
//     host actually spent,
//   - accumulated simulated cost (envmon_pipeline_sim_seconds_total) —
//     what the mechanism charges on the simulation clock (a 14.2 ms
//     SysMgmt API query costs 14.2 ms sim even if the host computes it in
//     200 ns), and
//   - a span counter (envmon_pipeline_ops_total).
//
// Stages that have no simulated cost (storage-side work) pass sim = 0.
// The two clocks together are the paper's Table 1 split: wall time is our
// overhead, simulated time is the modeled mechanism's.
type Tracer struct {
	reg *Registry
}

// NewTracer returns a tracer registering its stages in reg. A nil reg (or
// nil tracer) yields stages whose handles are nil and count nothing.
func NewTracer(reg *Registry) *Tracer {
	return &Tracer{reg: reg}
}

// Stage returns the named stage's three handles, which the registry makes
// on first use and returns again after, so two calls for one name count
// into one series. Call at wiring time and hold the value.
func (t *Tracer) Stage(name string) Stage {
	if t == nil {
		return Stage{}
	}
	return Stage{
		wall: t.reg.Histogram("envmon_pipeline_seconds",
			"Wall-clock span durations per pipeline stage.", DefLatencyBuckets, "stage", name),
		sim: t.reg.FloatCounter("envmon_pipeline_sim_seconds_total",
			"Accumulated simulated cost per pipeline stage.", "stage", name),
		ops: t.reg.Counter("envmon_pipeline_ops_total",
			"Spans recorded per pipeline stage.", "stage", name),
	}
}

// Stage is one pipeline stage's accounting. Its methods are
// allocation-free, and the zero Stage (an uninstrumented one) counts
// nothing.
type Stage struct {
	wall *Histogram
	sim  *FloatCounter
	ops  *Counter
}

// Observe records one completed span: wall host time and sim simulated
// cost (zero for stages the simulation does not charge).
func (s Stage) Observe(wall, sim time.Duration) {
	s.wall.ObserveDuration(wall)
	if sim > 0 {
		s.sim.Add(sim.Seconds())
	}
	s.ops.Inc()
}

// Begin opens a span clocked from time.Now. Span is a value — no
// allocation — and End records it.
func (s Stage) Begin() Span {
	if s.ops == nil {
		return Span{}
	}
	return Span{stage: s, start: time.Now()}
}

// Span is an open stage span. The zero value's End is a no-op.
type Span struct {
	stage Stage
	start time.Time
}

// End closes the span, charging sim simulated cost alongside the measured
// wall time.
func (sp Span) End(sim time.Duration) {
	if sp.stage.ops == nil {
		return
	}
	sp.stage.Observe(time.Since(sp.start), sim)
}
