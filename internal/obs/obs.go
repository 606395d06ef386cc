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

// child is one labeled instance inside a family. Exactly one of the value
// fields is set; render order is the sorted labels string.
type child struct {
	labels string // rendered `{k="v",...}`, or "" for the unlabeled child
	c      *Counter
	fc     *FloatCounter
	fn     func() float64 // func metric, evaluated at render time
	h      *Histogram
}

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

// Counter returns the counter for name and label set, creating it on
// first use. kv alternates label key, value; the same name+labels always
// returns the same handle. Safe to call from non-hot paths at runtime
// (e.g. an error counter keyed by status code); hot paths should hold the
// handle.
func (r *Registry) Counter(name, help string, kv ...string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, typeCounter)
	ls := renderLabels(kv)
	if ch, ok := f.children[ls]; ok {
		if ch.c == nil {
			panic(fmt.Sprintf("obs: metric %s%s redeclared with a different value kind", name, ls))
		}
		return ch.c
	}
	c := &Counter{}
	f.children[ls] = &child{labels: ls, c: c}
	return c
}

// FloatCounter returns a float-valued counter (e.g. accumulated seconds)
// for name and label set, creating it on first use.
func (r *Registry) FloatCounter(name, help string, kv ...string) *FloatCounter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, typeCounter)
	ls := renderLabels(kv)
	if ch, ok := f.children[ls]; ok {
		if ch.fc == nil {
			panic(fmt.Sprintf("obs: metric %s%s redeclared with a different value kind", name, ls))
		}
		return ch.fc
	}
	fc := &FloatCounter{}
	f.children[ls] = &child{labels: ls, fc: fc}
	return fc
}

// GaugeFunc registers a gauge whose value is fn(), evaluated at render
// time only — the zero-hot-path-cost way to expose a value something else
// already maintains (an atomic counter, a store statistic). fn must be
// safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, kv ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, typeGauge)
	ls := renderLabels(kv)
	if _, ok := f.children[ls]; ok {
		panic(fmt.Sprintf("obs: func metric %s%s registered twice", name, ls))
	}
	f.children[ls] = &child{labels: ls, fn: fn}
}

// CounterFunc registers a counter whose value is fn(), evaluated at
// render time only. fn must be monotonically non-decreasing and safe for
// concurrent use. This is how a subsystem that already counts (the
// telemetry store's atomics, the WAL's byte totals) is exposed without
// adding a single instruction to its hot path.
func (r *Registry) CounterFunc(name, help string, fn func() float64, kv ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, typeCounter)
	ls := renderLabels(kv)
	if _, ok := f.children[ls]; ok {
		panic(fmt.Sprintf("obs: func metric %s%s registered twice", name, ls))
	}
	f.children[ls] = &child{labels: ls, fn: fn}
}

// Histogram returns the fixed-bucket histogram for name and label set,
// creating it on first use with the given upper bounds (ascending,
// seconds by convention; +Inf is implicit). Later calls for an existing
// histogram ignore buckets.
func (r *Registry) Histogram(name, help string, buckets []float64, kv ...string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, typeHistogram)
	ls := renderLabels(kv)
	if ch, ok := f.children[ls]; ok {
		if ch.h == nil {
			panic(fmt.Sprintf("obs: metric %s%s redeclared with a different value kind", name, ls))
		}
		return ch.h
	}
	h := newHistogram(buckets)
	f.children[ls] = &child{labels: ls, h: h}
	return h
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
