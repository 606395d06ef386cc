package moneq

import (
	"time"

	"envmon/internal/core"
)

// sampler drives one collector on its own timer — the paper's "lowest
// polling interval possible for the given hardware" holds per mechanism,
// so a 560 ms EMON endpoint no longer gates a 60 ms RAPL counter sharing
// the session. The reading buffer is handed back to the collector on every
// poll, so the steady-state poll performs zero allocations.
type sampler struct {
	mon      *Monitor
	col      core.Collector
	method   string
	interval time.Duration
	errKey   string // "error/<method>", built once
	timer    core.Timer
	buf      []core.Reading
	firstErr string // first poll error ever seen (the root cause)
	polls    int
	samples  int
	errs     int
	cost     time.Duration
}

// poll is the SIGALRM handler analogue: one collection round for this
// collector.
func (s *sampler) poll(now time.Duration) {
	if s.mon.finalized {
		return
	}
	s.polls++
	readings, err := s.col.CollectInto(s.buf, now)
	s.buf = readings[:0]
	s.cost += s.col.Cost()
	if err != nil {
		// A failing backend must not take the application down; the real
		// library logs and continues. Record the failure — preserving the
		// first error alongside the last, because the first one is the root
		// cause and the last is often just its consequence.
		s.errs++
		if s.firstErr == "" {
			s.firstErr = err.Error()
		}
		s.mon.store.set.Meta[s.errKey] = err.Error()
		s.mon.store.recordGap(s.method, now)
		return
	}
	for i := range readings {
		s.mon.store.record(s.method, readings[i], now)
	}
	s.samples += len(readings)
}
