package obs

import (
	"time"

	"envmon/internal/core"
)

// instrumentedCollector wraps a core.Collector with poll accounting: poll
// and error counters plus simulated-cost totals labeled by platform and
// method, and a span in the tracer's "collect" stage (wall time of the
// mechanism call, simulated time it charged). CollectInto forwards the
// caller's buffer, so the zero-allocation steady-state poll path survives
// the wrapping — instrumentation that perturbs the measured path would
// repeat the mistake the paper warns about.
type instrumentedCollector struct {
	col   core.Collector
	polls *Counter
	errs  *Counter
	sim   *FloatCounter
	stage *Stage
}

// wrapCollector instruments col against reg and tr (either may be nil;
// the corresponding accounting is skipped). Metric handles are created
// here, once, so the poll path never touches the registry lock.
func wrapCollector(col core.Collector, reg *Registry, tr *Tracer) *instrumentedCollector {
	platform := col.Platform().String()
	method := col.Method()
	return &instrumentedCollector{
		col: col,
		polls: reg.Counter("envmon_collect_polls_total",
			"Collector polls, by vendor platform and access method.",
			"platform", platform, "method", method),
		errs: reg.Counter("envmon_collect_errors_total",
			"Failed collector polls, by vendor platform and access method.",
			"platform", platform, "method", method),
		sim: reg.FloatCounter("envmon_collect_sim_seconds_total",
			"Accumulated simulated collection cost (the paper's per-query overhead), by platform and method.",
			"platform", platform, "method", method),
		stage: tr.Stage("collect"),
	}
}

// Platform implements core.Collector.
func (ic *instrumentedCollector) Platform() core.Platform { return ic.col.Platform() }

// Method implements core.Collector.
func (ic *instrumentedCollector) Method() string { return ic.col.Method() }

// MinInterval implements core.Collector.
func (ic *instrumentedCollector) MinInterval() time.Duration { return ic.col.MinInterval() }

// Cost implements core.Collector.
func (ic *instrumentedCollector) Cost() time.Duration { return ic.col.Cost() }

// CollectInto implements core.Collector.
func (ic *instrumentedCollector) CollectInto(buf []core.Reading, now time.Duration) ([]core.Reading, error) {
	sp := ic.stage.Begin()
	readings, err := ic.col.CollectInto(buf, now)
	cost := ic.col.Cost()
	sp.End(cost)
	ic.polls.Inc()
	ic.sim.Add(cost.Seconds())
	if err != nil {
		ic.errs.Inc()
	}
	return readings, err
}

// Decorate returns a registry that builds base's collectors wrapped with
// instrumentation — the same switch shape as faults.Decorate, so the two
// compose: faults.Decorate inside, Decorate outside, and the
// instrumentation observes the faulty collector the rest of the stack
// sees. Handles are interned per backend key at build time; build order
// only affects registry-internal bookkeeping, never metric identity, so
// decoration is safe at any shard or worker count.
func Decorate(base *core.Registry, reg *Registry, tr *Tracer) *core.Registry {
	if reg == nil && tr == nil {
		return base
	}
	out := core.NewRegistry()
	for _, key := range base.Keys() {
		key := key
		out.Register(key, func(target any) (core.Collector, error) {
			col, err := base.Build(key, target)
			if err != nil {
				return nil, err
			}
			return wrapCollector(col, reg, tr), nil
		})
	}
	return out
}
