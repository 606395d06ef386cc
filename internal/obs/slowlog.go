package obs

import (
	"sync"
	"time"
)

// SlowOp is one operation that exceeded the slow threshold — the
// self-observability analogue of a database's slow-query log. Wall and
// Sim are the span's two clocks; At is the host wall-clock instant it was
// recorded, so an operator can line entries up with external logs.
type SlowOp struct {
	Kind   string        `json:"kind"`   // "query", "compaction", ...
	Detail string        `json:"detail"` // operation-specific description
	Wall   time.Duration `json:"wall_ns"`
	Sim    time.Duration `json:"sim_ns,omitempty"`
	At     time.Time     `json:"at"`
}

// SlowLog is a fixed-capacity ring of slow operations. Recording is
// mutex-guarded — slow operations are rare by definition, so contention
// is irrelevant — and the detail string for a fast operation is never
// built: Observe takes a closure it only calls past the threshold.
//
// A nil *SlowLog is inert (Observe no-ops, Snapshot returns nil).
type SlowLog struct {
	threshold time.Duration
	counters  *Registry // for the per-kind slow-op counters; may be nil

	mu    sync.Mutex
	buf   []SlowOp
	head  int // index of oldest entry
	n     int
	total uint64
}

// NewSlowLog returns a slow-op log keeping the most recent capacity
// entries over threshold (capacity <= 0 selects 128; threshold <= 0
// disables recording). When reg is non-nil, envmon_slow_ops_total{kind}
// counters track totals beyond the ring.
func NewSlowLog(reg *Registry, threshold time.Duration, capacity int) *SlowLog {
	if capacity <= 0 {
		capacity = 128
	}
	return &SlowLog{
		threshold: threshold,
		counters:  reg,
		buf:       make([]SlowOp, capacity),
	}
}

// Threshold reports the configured slow threshold (0 = disabled).
func (l *SlowLog) Threshold() time.Duration {
	if l == nil {
		return 0
	}
	return l.threshold
}

// Observe records the operation if wall meets the threshold, building the
// detail string only then. Returns whether the operation was recorded.
func (l *SlowLog) Observe(kind string, wall, sim time.Duration, detail func() string) bool {
	if l == nil || l.threshold <= 0 || wall < l.threshold {
		return false
	}
	op := SlowOp{Kind: kind, Wall: wall, Sim: sim, At: time.Now()}
	if detail != nil {
		op.Detail = detail()
	}
	l.mu.Lock()
	if l.n < len(l.buf) {
		l.buf[(l.head+l.n)%len(l.buf)] = op
		l.n++
	} else {
		l.buf[l.head] = op
		l.head = (l.head + 1) % len(l.buf)
	}
	l.total++
	l.mu.Unlock()
	// Only a slow operation gets here, so the registry's lock is taken at
	// the rate the log records, never on a fast path.
	l.counters.Counter("envmon_slow_ops_total",
		"Operations that exceeded the slow-op threshold, by kind.", "kind", kind).Inc()
	return true
}

// Total reports how many slow operations were ever recorded (including
// ones the ring has since evicted).
func (l *SlowLog) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Snapshot returns the retained slow operations, newest first.
func (l *SlowLog) Snapshot() []SlowOp {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowOp, l.n)
	for i := 0; i < l.n; i++ {
		out[i] = l.buf[(l.head+l.n-1-i)%len(l.buf)]
	}
	return out
}
