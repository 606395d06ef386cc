package telemetry

import (
	"fmt"
	"time"

	"envmon/internal/trace"
)

// MonEQSink is a moneq.Sink adapter: at Finalize (and on Flush retries)
// the session's collected set is ingested into the store, one telemetry
// series per trace series. It satisfies the moneq.Sink interface
// structurally, so moneq does not import this package and this package
// does not import moneq.
//
// A failing ingest (closed store, series limit, out-of-order data)
// surfaces through Finalize exactly like a CSV or JSON sink write error:
// the report stays valid, the data stays accessible, and the write can be
// retried against another store with Monitor.Flush. Note that unlike the
// file sinks, ingestion is additive — retrying against a store that
// already absorbed part of the set records those samples again.
type MonEQSink struct {
	// Store receives the samples. Required.
	Store *Store
	// Node overrides the session's node name (set.Meta["node"]) as the
	// SeriesKey.Node of every ingested series.
	Node string
}

// Name implements moneq.Sink.
func (MonEQSink) Name() string { return "telemetry" }

// Write implements moneq.Sink: every sample and gap marker of every
// series in the set is ingested under (node, backend, domain) keys
// derived from the trace series names ("method/capability"). Unlike a
// SetCursor.Flush it leaves the set as it found it: a Finalize-time sink's
// contract is that Set() stays readable and later sinks still see it.
func (s MonEQSink) Write(set *trace.Set) error {
	return NewSetCursor(s.Store, s.Node, set).flush(false)
}

// SetCursor streams a live trace.Set into a store incrementally: each
// Flush ingests the samples that appeared since the previous Flush and
// takes them off the set, so a monitor's set never holds more than the
// samples of one flush interval however long the session runs. This is
// how a running MonEQ job feeds the aggregation layer while the job is
// still collecting — wire one cursor per monitor to its Set() and call
// Flush from the clock-domain epoch barrier, where every domain is parked
// and the sets are quiescent.
//
// Keys and units are resolved once per series and a consumed series keeps
// its capacity, so a steady-state Flush (existing series, new samples)
// performs zero allocations. Each series' samples go to the store as one
// run (Store.ingestRun): one lock round-trip and, in a persistent store, one
// journal record per series per flush rather than per sample.
type SetCursor struct {
	// Offset is added to every sample and gap time on ingest. A restarted
	// daemon sets it past the recovered store's MaxTime so a fresh
	// simulation clock (which restarts at zero) never runs backwards
	// against recovered series. Set before the first Flush.
	Offset time.Duration

	store *Store
	node  string
	set   *trace.Set
	keys  []SeriesKey // parallel to set.Series
	units []string
}

// NewSetCursor returns a cursor streaming set into store under the given
// node name (empty selects set.Meta["node"] at first need).
func NewSetCursor(store *Store, node string, set *trace.Set) *SetCursor {
	return &SetCursor{store: store, node: node, set: set}
}

// Flush ingests every sample and gap marker the set holds and cuts them
// off it. On error everything up to the failing sample is in the store and
// off the set, and the unconsumed rest stays at the front of its series, so
// a later Flush resumes without duplication. Flush must not run
// concurrently with writers of the set (call it at an epoch barrier).
func (c *SetCursor) Flush() error { return c.flush(true) }

func (c *SetCursor) flush(consume bool) error {
	// One ingest-stage span per Flush (an epoch's worth of samples), not
	// per sample — the span cost amortizes over the whole batch.
	if o := c.store.obs; o != nil {
		defer o.ingestStage.Begin().End(0)
	}
	for i, ts := range c.set.Series {
		if i == len(c.keys) {
			node := c.node
			if node == "" {
				node = c.set.Meta["node"]
			}
			backend, domain := splitSeriesName(ts.Name)
			c.keys = append(c.keys, SeriesKey{Node: node, Backend: backend, Domain: domain})
			c.units = append(c.units, ts.Unit)
		}
		n, err := c.store.ingestRun(c.keys[i], c.units[i], ts.Samples, c.Offset)
		if consume {
			ts.Samples = ts.Samples[:copy(ts.Samples, ts.Samples[n:])]
		}
		if err != nil {
			return fmt.Errorf("telemetry: streaming series %q: %w", ts.Name, err)
		}
		for n = 0; n < len(ts.Gaps); n++ {
			if err = c.store.IngestGap(c.keys[i], c.units[i], ts.Gaps[n]+c.Offset); err != nil {
				break
			}
		}
		if consume {
			ts.Gaps = ts.Gaps[:copy(ts.Gaps, ts.Gaps[n:])]
		}
		if err != nil {
			return fmt.Errorf("telemetry: streaming gaps of series %q: %w", ts.Name, err)
		}
	}
	return nil
}

// Pending reports how many samples the set currently holds — the backlog
// the next Flush would ingest.
func (c *SetCursor) Pending() int {
	pending := 0
	for _, ts := range c.set.Series {
		pending += len(ts.Samples)
	}
	return pending
}
