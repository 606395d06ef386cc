// Package obs is the monitoring stack's self-observability layer: a
// dependency-free metrics registry with Prometheus text exposition,
// lightweight pipeline tracing, and a ring-buffered slow-operation log.
//
// The paper's central question — what does measuring cost, how stale is
// the data, at what cadence can you sample? — applies to this repository's
// own daemon as much as to the vendor mechanisms it models. Diamond &
// Stoico showed RAPL monitoring overhead grows with sampling frequency;
// Tröpgen et al. had to measure the POWER9 OCC's readout latency before
// trusting its data. This package asks the same questions of envmond
// itself: every collector poll, retry, breaker flap, ingest, WAL append,
// compaction, and query is counted and timed, and the accounting is cheap
// enough to leave on permanently (see the self-overhead benchmark pair
// in internal/telemetry, BenchmarkIngestPlain / BenchmarkIngestInstrumented,
// whose ratio CI gates).
//
// Design constraints, in order:
//
//   - Zero allocations on instrumented hot paths. Metric handles
//     (Counter, FloatCounter, Histogram) are created once at wiring time —
//     name and label set interned then — and the operations the hot paths call
//     (Inc, Add, Observe) touch only preallocated atomics.
//   - One table of handles. Every handle is made in one place, the
//     registry's get-or-create, and the registry is the only map of them:
//     the tracer, the slow-op log and their callers ask it again rather
//     than keep their own. Each child of a family holds one value, a
//     handle or a scrape-time func, which renders itself. A nil handle
//     counts nothing, so uninstrumented code needs no guards.
//   - Zero marginal cost where a counter already exists. Most of the
//     telemetry store's metrics are func metrics: closures evaluated only
//     at scrape time over atomics the store was already maintaining, so
//     instrumenting the ingest path adds no instructions to it.
//   - Deterministic exposition. Families render sorted by name, children
//     by label set, so golden tests and CI greps are stable.
//
// The registry speaks the Prometheus text format (version 0.0.4): counters,
// gauges, and cumulative fixed-bucket histograms, exposed via Handler or
// WriteText. No third-party client library is linked — the format is four
// line shapes and this stack controls both ends of the wire (the envtop
// header parses it back with internal/telemetry/client).
package obs

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// metricType is the exposition TYPE of a family.
type metricType uint8

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// child is one labeled instance inside a family: its rendered label set
// (`{k="v",...}`, or "" for the unlabeled child), which is also its render
// order, and its one value.
type child struct {
	labels string
	v      value
}

// value is what a child holds: a handle the instrumented code updates
// (*Counter, *FloatCounter, *Histogram) or a func read at scrape time.
// write renders it as the exposition lines of one child.
type value interface {
	write(bw *bufio.Writer, name, labels string)
}

// funcValue is a func metric's value, evaluated at render time.
type funcValue func() float64

// family groups every child of one metric name.
type family struct {
	name     string
	help     string
	typ      metricType
	children map[string]*child
}

// Registry holds metric families and renders them. Handle creation
// (Counter, Histogram, ...) takes the registry lock and is meant for wiring
// time; the returned handles are lock-free and safe for concurrent use.
// A nil *Registry is inert: creation methods return nil handles, and nil
// handles' operations are no-ops, so call sites need no instrumentation
// guards.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// validName reports whether s is a legal metric or label name:
// [a-zA-Z_:][a-zA-Z0-9_:]* (colons allowed in metric names only; we accept
// them everywhere since we control all call sites).
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// renderLabels validates and interns a label set: pairs sorted by key,
// values escaped, rendered once to the canonical `{k="v",...}` form the
// exposition uses. kv alternates key, value. An empty kv renders "".
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obs: odd label key/value list")
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		if !validName(kv[i]) {
			panic(fmt.Sprintf("obs: invalid label name %q", kv[i]))
		}
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue escapes backslash, double quote, and newline per the
// text format.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// getFamily returns the named family, creating it with help/typ on first
// use. A type conflict panics: metric names are wired by hand and a
// conflict is a programming error, not a runtime condition.
func (r *Registry) getFamily(name, help string, typ metricType) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, children: make(map[string]*child)}
		r.families[name] = f
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q redeclared as %s (was %s)", name, typ, f.typ))
	}
	return f
}

// handle is the one get-or-create behind every constructor: the child of
// name and the label set kv, made by mk on first use. A later call for the
// same child returns the same handle; a func metric registers once, and
// any other clash (a func registered twice, or a child asked for as
// another kind) panics, as a type conflict does. A nil registry makes
// nothing and returns V's zero value, a nil handle that counts nothing.
func handle[V value](r *Registry, name, help string, typ metricType, kv []string, mk func() V) V {
	var v V
	if r == nil {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, typ)
	ls := renderLabels(kv)
	ch, ok := f.children[ls]
	if !ok {
		v = mk()
		f.children[ls] = &child{labels: ls, v: v}
		return v
	}
	v, same := ch.v.(V)
	if _, fn := ch.v.(funcValue); fn || !same {
		panic(fmt.Sprintf("obs: metric %s%s declared twice as a func metric or as another kind", name, ls))
	}
	return v
}

// Counter returns the counter for name and label set, creating it on
// first use. kv alternates label key, value; the same name+labels always
// returns the same handle. Safe to call from non-hot paths at runtime
// (e.g. an error counter keyed by status code); hot paths should hold the
// handle.
func (r *Registry) Counter(name, help string, kv ...string) *Counter {
	return handle(r, name, help, typeCounter, kv, func() *Counter { return new(Counter) })
}

// FloatCounter returns a float-valued counter (e.g. accumulated seconds)
// for name and label set, creating it on first use.
func (r *Registry) FloatCounter(name, help string, kv ...string) *FloatCounter {
	return handle(r, name, help, typeCounter, kv, func() *FloatCounter { return new(FloatCounter) })
}

// GaugeFunc registers a gauge whose value is fn(), evaluated at render
// time only — the zero-hot-path-cost way to expose a value something else
// already maintains (an atomic counter, a store statistic). fn must be
// safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, kv ...string) {
	handle(r, name, help, typeGauge, kv, func() funcValue { return fn })
}

// CounterFunc registers a counter whose value is fn(), evaluated at
// render time only. fn must be monotonically non-decreasing and safe for
// concurrent use. This is how a subsystem that already counts (the
// telemetry store's atomics, the WAL's byte totals) is exposed without
// adding a single instruction to its hot path.
func (r *Registry) CounterFunc(name, help string, fn func() float64, kv ...string) {
	handle(r, name, help, typeCounter, kv, func() funcValue { return fn })
}

// Histogram returns the fixed-bucket histogram for name and label set,
// creating it on first use with the given upper bounds (ascending,
// seconds by convention; +Inf is implicit). Later calls for an existing
// histogram ignore buckets.
func (r *Registry) Histogram(name, help string, buckets []float64, kv ...string) *Histogram {
	return handle(r, name, help, typeHistogram, kv, func() *Histogram { return newHistogram(buckets) })
}

// Counter is a monotonically increasing integer metric. The zero value is
// ready; operations on a nil *Counter are no-ops.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reports the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// atomicFloat is a float64 with atomic add, for accumulated-seconds
// counters and histogram sums.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// FloatCounter is a monotonically increasing float metric — accumulated
// simulated seconds, mostly. Operations on a nil *FloatCounter are no-ops.
type FloatCounter struct {
	v atomicFloat
}

// Add adds v, which must be non-negative to keep the counter monotone.
func (c *FloatCounter) Add(v float64) {
	if c != nil {
		c.v.Add(v)
	}
}

// Value reports the accumulated total.
func (c *FloatCounter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}
