package obs

import (
	"sync"
	"time"
)

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
	reg    *Registry
	mu     sync.Mutex
	stages map[string]*Stage
}

// NewTracer returns a tracer registering its stages in reg. A nil reg (or
// nil tracer) yields nil stages whose operations are no-ops.
func NewTracer(reg *Registry) *Tracer {
	return &Tracer{reg: reg, stages: make(map[string]*Stage)}
}

// Stage returns the named stage, creating and registering it on first
// use. Call at wiring time and hold the handle; a nil tracer returns nil,
// and a nil *Stage is safe to observe into.
func (t *Tracer) Stage(name string) *Stage {
	if t == nil || t.reg == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.stages[name]; ok {
		return s
	}
	s := &Stage{
		wall: t.reg.Histogram("envmon_pipeline_seconds",
			"Wall-clock span durations per pipeline stage.", DefLatencyBuckets, "stage", name),
		sim: t.reg.FloatCounter("envmon_pipeline_sim_seconds_total",
			"Accumulated simulated cost per pipeline stage.", "stage", name),
		ops: t.reg.Counter("envmon_pipeline_ops_total",
			"Spans recorded per pipeline stage.", "stage", name),
	}
	t.stages[name] = s
	return s
}

// Stage is one pipeline stage's accounting. All methods are nil-safe and
// allocation-free.
type Stage struct {
	wall *Histogram
	sim  *FloatCounter
	ops  *Counter
}

// Observe records one completed span: wall host time and sim simulated
// cost (zero for stages the simulation does not charge).
func (s *Stage) Observe(wall, sim time.Duration) {
	if s == nil {
		return
	}
	s.wall.ObserveDuration(wall)
	if sim > 0 {
		s.sim.Add(sim.Seconds())
	}
	s.ops.Inc()
}

// Begin opens a span clocked from time.Now. Span is a value — no
// allocation — and End records it.
func (s *Stage) Begin() Span {
	if s == nil {
		return Span{}
	}
	return Span{stage: s, start: time.Now()}
}

// Span is an open stage span. The zero value's End is a no-op.
type Span struct {
	stage *Stage
	start time.Time
}

// End closes the span, charging sim simulated cost alongside the measured
// wall time.
func (sp Span) End(sim time.Duration) {
	if sp.stage == nil {
		return
	}
	sp.stage.Observe(time.Since(sp.start), sim)
}
