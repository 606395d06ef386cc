// Package moneq is a Go port of MonEQ, the power-profiling library the
// paper presents in Section III — extended, as in the paper, "to support
// the most common of devices now found in supercomputers with the same
// feature set and ease of use as before".
//
// The programming model mirrors the paper's Listing 1: two lines of code
// bracket the application —
//
//	mon, err := moneq.Initialize(cfg, collector)   // MonEQ_Initialize()
//	/* user code (advance the simulated clock)  */
//	report, err := mon.Finalize()                  // MonEQ_Finalize()
//
// Internally the monitor is a three-layer pipeline:
//
//   - sampler: one timer per collector, firing at that mechanism's own
//     MinInterval in default mode — "the lowest polling interval possible
//     for the given hardware" holds per mechanism, so a 560 ms EMON
//     endpoint does not gate a 60 ms RAPL counter in the same session. An
//     explicit Config.Interval applies to every collector and must satisfy
//     the slowest one.
//   - store: preallocated series buffers the samplers record into.
//   - sinks: pluggable output writers (CSV, JSON) invoked at Finalize.
//
// Polling is timer-driven — the simulation's analogue of the SIGALRM
// handler the real library registers. When a timer fires, MonEQ calls down
// to the appropriate vendor interface and records the latest generation of
// environmental data. Tagging wraps sections of code in named start/end
// markers injected into the output.
//
// Overhead accounting reproduces Table III's structure: a small
// initialization cost, a per-poll collection cost (the vendor mechanism's
// per-query latency), and a finalization cost dominated by writing the
// collected data, which grows with job scale.
package moneq

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"envmon/internal/core"
	"envmon/internal/trace"
)

// Config parameterizes Initialize.
type Config struct {
	// Clock drives polling and stamps the session (start time, tags).
	// Required. Any core.Clock works: the lone global clock of a small
	// experiment, or one domain of a sharded cluster.
	Clock core.Clock
	// Interval is the polling interval applied to every collector; zero
	// selects each collector's own hardware minimum. A non-zero interval
	// below the slowest collector's minimum is rejected.
	Interval time.Duration
	// Node names this monitor's location for output metadata (e.g. the
	// node card or hostname). On BG/Q, one rank per node card — "the local
	// agent rank" — owns collection.
	Node string
	// Rank and NumTasks describe the job (MPI-style); NumTasks drives the
	// finalization cost model. Zero NumTasks is treated as 1.
	Rank, NumTasks int
	// Output, when non-nil, is shorthand for prepending CSVSink{Output} to
	// Sinks: the per-node CSV data is written there at Finalize.
	Output io.Writer
	// Sinks receive the collected set at Finalize, in order.
	Sinks []Sink
	// PreallocPolls sizes each series' sample buffer up front — the real
	// MonEQ "allocates an array of a custom C struct ... to a reasonably
	// large number" at initialization so the collection path never
	// allocates. Zero means grow dynamically.
	PreallocPolls int
}

// CollectorReport breaks down one collector's sampling within a session.
type CollectorReport struct {
	Method         string
	Interval       time.Duration // this collector's polling interval
	Polls          int
	Samples        int
	Errors         int
	FirstError     string // first poll error seen (the root cause), if any
	CollectionCost time.Duration
	// Degraded-mode counters, filled when the collector is a resilience
	// chain (or anything else exposing ResilienceCounters); zero otherwise.
	Retries   int
	Trips     int
	Fallbacks int
	Dropped   int
}

// resilienceCounters is the structural hook a resilience chain exposes;
// declared here (like Sink for the telemetry sink) so moneq stays
// policy-agnostic and imports nothing from the resilience layer.
type resilienceCounters interface {
	ResilienceCounters() (retries, trips, fallbacks, dropped int)
}

// Report summarizes a finished profiling session — the quantities of the
// paper's Table III.
type Report struct {
	// Interval is the explicit polling interval, or in default mode the
	// fastest per-collector interval in the session; per-collector
	// intervals are in Collectors.
	Interval       time.Duration
	Polls          int           // polls by the most-polled collector
	Samples        int           // total readings recorded
	Gaps           int           // failed-poll markers recorded
	InitCost       time.Duration // time spent in Initialize
	CollectionCost time.Duration // total per-query cost over the run
	FinalizeCost   time.Duration // data write-out at Finalize
	TotalCost      time.Duration
	AppRuntime     time.Duration // Initialize -> Finalize span
	Collectors     []CollectorReport
}

// OverheadFraction reports total MonEQ cost relative to application
// runtime (the paper reports ~0.4 % at 1K nodes, 0.19 % for collection
// alone).
func (r Report) OverheadFraction() float64 {
	if r.AppRuntime <= 0 {
		return 0
	}
	return r.TotalCost.Seconds() / r.AppRuntime.Seconds()
}

// Monitor is an active profiling session.
type Monitor struct {
	cfg       Config
	samplers  []*sampler
	interval  time.Duration
	store     *store
	sinks     []Sink
	startedAt time.Duration
	initCost  time.Duration
	finalized bool
}

// Initialize sets up data structures, registers the polling timers, and
// returns the live monitor (MonEQ_Initialize). At least one collector is
// required. Every collector polls on Config.Clock and records straight into
// the store; a cluster gets its parallelism from giving each node's monitor
// its own clock domain, not from splitting one monitor across domains.
func Initialize(cfg Config, collectors ...core.Collector) (*Monitor, error) {
	if cfg.Clock == nil {
		return nil, fmt.Errorf("moneq: Config.Clock is required")
	}
	if len(collectors) == 0 {
		return nil, fmt.Errorf("moneq: at least one collector is required")
	}
	for i, c := range collectors {
		if c == nil {
			return nil, fmt.Errorf("moneq: collector %d is nil", i)
		}
	}
	if cfg.NumTasks <= 0 {
		cfg.NumTasks = 1
	}
	// hwMin is the slowest mechanism's minimum: an explicit interval must
	// satisfy every collector. fastest is the default-mode session
	// interval reported by Interval().
	var hwMin, fastest time.Duration
	for _, c := range collectors {
		mi := c.MinInterval()
		if mi > hwMin {
			hwMin = mi
		}
		if mi > 0 && (fastest == 0 || mi < fastest) {
			fastest = mi
		}
	}
	interval := cfg.Interval
	if interval == 0 {
		interval = fastest
	} else if interval < hwMin {
		return nil, fmt.Errorf("moneq: interval %v below hardware minimum %v", interval, hwMin)
	}
	if interval <= 0 {
		return nil, fmt.Errorf("moneq: no collector reports a positive MinInterval; set Config.Interval")
	}

	m := &Monitor{
		cfg:       cfg,
		interval:  interval,
		store:     newStore(cfg.PreallocPolls),
		startedAt: cfg.Clock.Now(),
		initCost:  initCostModel(cfg.NumTasks, len(collectors)),
	}
	if cfg.Output != nil {
		m.sinks = append(m.sinks, CSVSink{W: cfg.Output})
	}
	m.sinks = append(m.sinks, cfg.Sinks...)

	meta := m.store.set.Meta
	meta["node"] = cfg.Node
	meta["rank"] = strconv.Itoa(cfg.Rank)
	meta["ntasks"] = strconv.Itoa(cfg.NumTasks)
	meta["interval"] = interval.String()
	for _, c := range collectors {
		per := interval
		if cfg.Interval == 0 {
			if mi := c.MinInterval(); mi > 0 {
				per = mi
			}
		}
		s := &sampler{
			mon:      m,
			col:      c,
			method:   c.Method(),
			interval: per,
			errKey:   "error/" + c.Method(),
		}
		meta["collector/"+s.method] = c.Platform().String()
		meta["interval/"+s.method] = per.String()
		s.timer = cfg.Clock.Every(per, s.poll)
		m.samplers = append(m.samplers, s)
	}
	return m, nil
}

// Node reports the configured node name (output-metadata location) of
// this monitor — the identity a job-level consumer keys per-node data by.
func (m *Monitor) Node() string { return m.cfg.Node }

// Interval reports the session polling interval: the explicit
// Config.Interval, or in default mode the fastest collector's hardware
// minimum. Individual collectors may poll more slowly; see
// Report.Collectors.
func (m *Monitor) Interval() time.Duration { return m.interval }

// StartTag begins a named section at the current simulated time (the
// paper's tagging feature: "sections of code to be wrapped in start/end
// tags which inject special markers in the output files").
func (m *Monitor) StartTag(name string) {
	m.store.set.StartTag(name, m.cfg.Clock.Now())
}

// EndTag closes the most recent open tag with the given name.
func (m *Monitor) EndTag(name string) error {
	return m.store.set.EndTag(name, m.cfg.Clock.Now())
}

// Set exposes the collected data (valid after Finalize; during the run it
// reflects progress so far — less whatever a streaming consumer such as
// telemetry.SetCursor has already taken off it).
func (m *Monitor) Set() *trace.Set { return m.store.set }

// Series returns the recorded series for a collector method and
// capability, or nil.
func (m *Monitor) Series(method string, cap core.Capability) *trace.Series {
	return m.store.lookup(method, cap)
}

// Finalize stops polling, writes every sink, and returns the overhead
// report (MonEQ_Finalize). Calling it twice is an error.
//
// The report is built before any sink runs: when a sink fails, Finalize
// returns the valid report alongside the error, the collected data stays
// accessible through Set(), and the failed write can be retried with
// Flush. Every sink is attempted; the first error is returned.
func (m *Monitor) Finalize() (Report, error) {
	if m.finalized {
		return Report{}, fmt.Errorf("moneq: Finalize called twice")
	}
	m.finalized = true
	for _, s := range m.samplers {
		s.timer.Stop()
	}
	r := m.buildReport()
	var firstErr error
	for _, sink := range m.sinks {
		if err := sink.Write(m.store.set); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("moneq: writing output to %s sink: %w", sink.Name(), err)
		}
	}
	return r, firstErr
}

// Flush writes the collected set to one sink — the retry path for a sink
// error from Finalize (whose report remains valid).
func (m *Monitor) Flush(sink Sink) error {
	if !m.finalized {
		return fmt.Errorf("moneq: Flush before Finalize")
	}
	return sink.Write(m.store.set)
}

func (m *Monitor) buildReport() Report {
	r := Report{
		Interval:   m.interval,
		InitCost:   m.initCost,
		AppRuntime: m.cfg.Clock.Now() - m.startedAt,
		Collectors: make([]CollectorReport, 0, len(m.samplers)),
	}
	// errCounts and degraded aggregate per Meta key, because samplers of
	// the same method (two RAPL sockets) share error and resilience keys.
	errCounts := make(map[string]int)
	type degradedCounts struct{ retries, trips, fallbacks, dropped int }
	degraded := make(map[string]degradedCounts)
	for _, s := range m.samplers {
		cr := CollectorReport{
			Method:         s.method,
			Interval:       s.interval,
			Polls:          s.polls,
			Samples:        s.samples,
			Errors:         s.errs,
			FirstError:     s.firstErr,
			CollectionCost: s.cost,
		}
		if s.errs > 0 {
			errCounts[s.errKey] += s.errs
			if _, seen := m.store.set.Meta[s.errKey+"/first"]; !seen {
				m.store.set.Meta[s.errKey+"/first"] = s.firstErr
			}
		}
		if rc, ok := s.col.(resilienceCounters); ok {
			cr.Retries, cr.Trips, cr.Fallbacks, cr.Dropped = rc.ResilienceCounters()
			d := degraded["resilience/"+s.method]
			d.retries += cr.Retries
			d.trips += cr.Trips
			d.fallbacks += cr.Fallbacks
			d.dropped += cr.Dropped
			degraded["resilience/"+s.method] = d
		}
		r.Collectors = append(r.Collectors, cr)
		if s.polls > r.Polls {
			r.Polls = s.polls
		}
		r.Samples += s.samples
		r.CollectionCost += s.cost
	}
	for key, n := range errCounts {
		m.store.set.Meta[key+"/count"] = strconv.Itoa(n)
	}
	for key, d := range degraded {
		m.store.set.Meta[key] = fmt.Sprintf("retries=%d trips=%d fallbacks=%d dropped=%d",
			d.retries, d.trips, d.fallbacks, d.dropped)
	}
	r.Gaps = m.store.gaps
	r.FinalizeCost = finalizeCostModel(m.cfg.NumTasks, r.Samples)
	r.TotalCost = r.InitCost + r.CollectionCost + r.FinalizeCost
	return r
}
