package federation

import (
	"time"

	"envmon/internal/obs"
)

// fedObs holds the federator's metric handles, interned per member at
// Instrument time so the fan-out path never touches the registry lock.
type fedObs struct {
	latency   map[string]*obs.Histogram
	errors    map[string]*obs.Counter
	skips     map[string]*obs.Counter
	reencoded map[string]*obs.Counter
	partial   *obs.Counter
	// which path a /query frame took through the merge
	forwarded, combined *obs.Counter
}

// Instrument registers the federation tier's self-observability in reg:
// per-member fan-out latency histograms and error/skip counters, members
// by breaker state, which path /query frames took (forwarded or combined)
// and which members' bodies had to be re-encoded, and the partial-response
// counter the acceptance criteria watch. Call at wiring time, before the
// federator is shared.
func (f *Federator) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	o := &fedObs{
		latency:   make(map[string]*obs.Histogram, len(f.members)),
		errors:    make(map[string]*obs.Counter, len(f.members)),
		skips:     make(map[string]*obs.Counter, len(f.members)),
		reencoded: make(map[string]*obs.Counter, len(f.members)),
	}
	for _, m := range f.members {
		o.latency[m.name] = reg.Histogram("envfed_member_request_seconds",
			"Fan-out request latency, by member.", obs.DefLatencyBuckets, "member", m.name)
		o.errors[m.name] = reg.Counter("envfed_member_errors_total",
			"Failed member calls (after the transport gave up), by member.", "member", m.name)
		o.skips[m.name] = reg.Counter("envfed_member_skipped_total",
			"Member calls skipped outright because the breaker was open, by member.", "member", m.name)
		o.reencoded[m.name] = reg.Counter("envfed_member_bodies_reencoded_total",
			"/query bodies not in the codec's own spelling, decoded by encoding/json and encoded again: the member runs another codec, or a label needs an escape.", "member", m.name)
	}
	o.partial = reg.Counter("envfed_partial_responses_total",
		"Federated responses missing at least one member (explicit degraded state).")
	const framesHelp = "Frames served on /query, by path: forwarded as the bytes one member sent, or combined from several members' frames (a series spanning racks)."
	o.forwarded = reg.Counter("envfed_query_frames_total", framesHelp, "path", "forwarded")
	o.combined = reg.Counter("envfed_query_frames_total", framesHelp, "path", "combined")
	count := func(state string) func() float64 {
		return func() float64 {
			n := 0
			for _, mi := range f.Members() {
				if mi.State == state {
					n++
				}
			}
			return float64(n)
		}
	}
	for _, state := range []string{"closed", "open", "half-open"} {
		reg.GaugeFunc("envfed_member_breaker",
			"Members by breaker state.", count(state), "state", state)
	}
	f.obs = o
}

func (f *Federator) observeCall(m *member, d time.Duration, err error) {
	if f.obs == nil {
		return
	}
	f.obs.latency[m.name].ObserveDuration(d)
	if err != nil {
		f.obs.errors[m.name].Inc()
	}
}

func (f *Federator) observeSkip(m *member) {
	if f.obs == nil {
		return
	}
	f.obs.skips[m.name].Inc()
}

func (f *Federator) observeReencoded(m *member) {
	if f.obs != nil {
		f.obs.reencoded[m.name].Inc()
	}
}

func (f *Federator) observeFrames(forwarded, combined int) {
	if f.obs != nil {
		f.obs.forwarded.Add(uint64(forwarded))
		f.obs.combined.Add(uint64(combined))
	}
}

func (f *Federator) observePartial(missing int) {
	if f.obs != nil && missing > 0 {
		f.obs.partial.Inc()
	}
}
