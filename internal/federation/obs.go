package federation

import "envmon/internal/obs"

// fedObs holds the federator's document-level metric handles; each
// member holds its own (member.latency, ...). All are made at Instrument
// time, so the fan-out path never touches the registry lock, and all are
// nil before it: a nil handle counts nothing.
type fedObs struct {
	partial *obs.Counter
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
	for _, m := range f.members {
		m.latency = reg.Histogram("envfed_member_request_seconds",
			"Fan-out request latency, by member.", obs.DefLatencyBuckets, "member", m.name)
		m.errs = reg.Counter("envfed_member_errors_total",
			"Failed member calls (after the transport gave up), by member.", "member", m.name)
		m.skips = reg.Counter("envfed_member_skipped_total",
			"Member calls skipped outright because the breaker was open, by member.", "member", m.name)
		m.reencoded = reg.Counter("envfed_member_bodies_reencoded_total",
			"/query bodies not in the codec's own spelling, decoded by encoding/json and encoded again: the member runs another codec, or a label needs an escape.", "member", m.name)
	}
	f.obs.partial = reg.Counter("envfed_partial_responses_total",
		"Federated responses missing at least one member (explicit degraded state).")
	const framesHelp = "Frames served on /query, by path: forwarded as the bytes one member sent, or combined from several members' frames (a series spanning racks)."
	f.obs.forwarded = reg.Counter("envfed_query_frames_total", framesHelp, "path", "forwarded")
	f.obs.combined = reg.Counter("envfed_query_frames_total", framesHelp, "path", "combined")
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
}
