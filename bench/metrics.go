package main

// The metric glossary. BENCHMARK.json lists the same names, units and
// directions (a test keeps the two in step); the fields it has no key for
// — which workloads produce a metric, which layer a per-layer number
// belongs to and which end-to-end metric it should move — live here and in
// README.md.

// The four workloads, in stack order: the order their sections run in and
// the order in which a metric two of them produce is resolved.
var workloadNames = []string{"ingest-durable", "query-direct", "fed-fanout", "live-loop"}

// endToEnd is a metric a user of the stack would see, and one the run can
// measure steadily enough to judge a change by: a later change is refused
// when it worsens one of these by more than Bound.
type endToEnd struct {
	Name, Unit, Better string
	// Bound is the share of the parent's median by which the metric may
	// worsen before a change counts as a regression.
	Bound float64
	// Workloads produce the metric natively. A run focused on one of them
	// reports that workload's value; any other run reports the first
	// one's, measured at companion size.
	Workloads []string
}

// The end-to-end timings are the 5th percentile of a class of identical
// operations, not the median. The build machine is two virtual cores of a
// shared host whose neighbours come and go by the minute: between a quiet
// and a busy spell the median of the same request on the same commit moves
// by 8 to 20 %, a rate by 10 to 15 %, while the 5th percentile moves by
// 1 to 5 % (interference only ever adds time, so the fast tail is the part
// of the distribution that is the program's own). The medians, tails and
// rates the issue names are still measured and printed; they are per-layer
// metrics under their own names (demoted below), because a bound they
// cannot hold themselves to would reject the parent against itself.
var endToEndMetrics = []endToEnd{
	{"setup_s", "s", "lower", timingBound, nil}, // of the run, not of one section
	{"flush_p05_ms", "ms", "lower", timingBound, []string{ing, live}},
	{"bytes_per_sample", "B", "lower", 0.03, []string{ing}},
	{"recent_p05_ms", "ms", "lower", timingBound, []string{qry, fed}},
	{"history_p05_ms", "ms", "lower", timingBound, []string{qry}},
}

// timingBound is the regression bound of every timing: the contract's
// ceiling. Ten runs at ten seeds spread (first to third quartile over the
// median) by 0.005 to 0.03 on these metrics while the host is quiet and by
// up to 0.11 while it is busy (the federated recent query, six goroutines
// on two cores, is the least steady), and a spell in which the whole
// machine runs a quarter slower for a minute moves even the fast tail; a
// bound has to sit well outside that to tell a regression from the host.
const timingBound = 0.25

// owner names the workload whose section a run focused on focus takes the
// metric from ("" for a metric of the run itself).
func (m endToEnd) owner(focus string) string {
	if len(m.Workloads) == 0 {
		return ""
	}
	for _, w := range m.Workloads {
		if w == focus {
			return w
		}
	}
	return m.Workloads[0]
}

// perLayer is a metric of one layer (the name's prefix is the package),
// reported by a traced run. Moves says which end-to-end metric a change to
// the layer should move, and on which workload; the prediction everywhere
// else is no change.
type perLayer struct {
	Name, Unit, Better string
	Workload           string // the section that measures it
	Moves              string
}

const (
	ing, qry, fed, live = "ingest-durable", "query-direct", "fed-fanout", "live-loop"

	movesIngest  = "flush_p05_ms and ingest_ksamples_per_s on ingest-durable"
	movesTail    = "flush_p99_ms"
	movesDecide  = "sample_to_decision_p50_ms and sim_rate on live-loop"
	movesReadAll = "recent_p05_ms, history_p05_ms, read_kpoints_per_s on query-direct and fed-fanout"
	movesFed     = "recent_p05_ms, topk_p50_ms on fed-fanout; sample_to_decision_p50_ms on live-loop"

	// demoted marks what the issue lists as an end-to-end metric and a
	// user of the stack does see, but which ten runs of one commit on the
	// shared build machine spread by more than any bound the contract
	// allows (0.10 to 0.50 when the host is busy). By the issue's rule it
	// is reported under its name as a per-layer metric, with the workload
	// appended where two workloads produce it.
	demoted = "user-visible; too unsteady on a shared host to gate on"
)

var perLayerMetrics = append([]perLayer{
	// Write path, measured inline on ingest-durable.
	{"ingest_ksamples_per_s.ingest-durable", "ksamples/s", "higher", ing, demoted},
	{"flush_p50_ms.ingest-durable", "ms", "lower", ing, demoted},
	{"reopen_ms", "ms", "lower", ing, demoted},
	{"telemetry.durable_ns_per_sample", "ns", "lower", ing, "the reciprocal of " + movesIngest},
	{"telemetry.compactions", "count", "lower", ing, "exact; " + movesTail},
	{"flush_p99_ms", "ms", "lower", ing, "an epoch's batch at the 99th percentile: what inline compaction and rotation cost the writer"},
	{"telemetry.stall_share", "ratio", "lower", ing, movesTail},
	{"telemetry.flush_max_ms", "ms", "lower", ing, movesTail},
	{"telemetry.seal_ms", "ms", "lower", ing, "shutdown cost; no end-to-end metric"},
	{"wal.bytes_per_sample", "B", "lower", ing, "exact; write cost, no timing metric"},
	{"block.files", "count", "lower", ing, "exact; reopen_ms"},
	{"block.write_amp", "ratio", "lower", ing, "exact; must not rise when ingest_ksamples_per_s rises"},
	// Write path, probes.
	{"telemetry.ingest_ns_per_sample", "ns", "lower", ing, movesIngest},
	{"telemetry.journal_ns_per_sample", "ns", "lower", ing, movesIngest},
	{"wal.append_ns_per_sample", "ns", "lower", ing, movesIngest + " and flush_p50_ms; sample_to_decision_p50_ms on live-loop by its share of flush"},
	{"wal.replay_ms", "ms", "lower", ing, "reopen_ms"},
	{"storage.encode_ns_per_point", "ns", "lower", ing, "compaction share of " + movesIngest},
	{"storage.decode_ns_per_point", "ns", "lower", ing, "history_p50_ms on query-direct; nothing on fed-fanout"},
	// Read path of one envmond: the client's view, spans on the live
	// socket, then probes.
	{"topk_p05_ms.query-direct", "ms", "lower", qry, "a sub-millisecond round trip, mostly goroutine wake-ups: unsteady even at the 5th percentile"},
	{"topk_p50_ms.query-direct", "ms", "lower", qry, demoted},
	{"recent_p50_ms.query-direct", "ms", "lower", qry, demoted},
	{"history_p50_ms.query-direct", "ms", "lower", qry, demoted},
	{"read_kpoints_per_s.query-direct", "kpoints/s", "higher", qry, demoted},
	{"recent_p99_ms", "ms", "lower", qry, "client-observed recent query at the 99th percentile: GC and scheduling on top of recent_p50_ms"},
	{"httpapi.resp_bytes_per_point", "B", "lower", qry, "exact; read_kpoints_per_s"},
	{"httpapi.serve_us.topk", "us", "lower", qry, "topk_p50_ms on query-direct"},
	{"client.topk_us", "us", "lower", qry, "topk_p50_ms wherever a client is used"},
	{"httpapi.serve_us.recent", "us", "lower", qry, "recent_p50_ms on query-direct; minus httpapi.recent_us is the HTTP write"},
	{"client.recent_us", "us", "lower", qry, "recent_p50_ms wherever a client is used, and federation.self_us.*"},
	{"httpapi.serve_us.history", "us", "lower", qry, "history_p50_ms on query-direct; minus httpapi.history_us is the HTTP write"},
	{"client.history_us", "us", "lower", qry, "history_p50_ms wherever a client is used"},
	{"block.scan_ns_per_point", "ns", "lower", qry, "history_p50_ms on query-direct"},
	{"telemetry.topk_us", "us", "lower", qry, "topk_p50_ms on query-direct; small on fed-fanout"},
	{"httpapi.topk_us", "us", "lower", qry, "topk_p50_ms"},
	{"telemetry.recent_us", "us", "lower", qry, "recent_p50_ms on query-direct; small on fed-fanout"},
	{"httpapi.recent_us", "us", "lower", qry, movesReadAll},
	{"telemetry.history_us", "us", "lower", qry, "history_p50_ms on query-direct"},
	{"httpapi.history_us", "us", "lower", qry, movesReadAll},
	{"httpapi.encode_ns_per_point", "ns", "lower", qry, movesReadAll},
	{"httpapi.alloc_b_per_point", "B", "lower", qry, "read_kpoints_per_s on query-direct; recent_p99_ms through GC"},
	// Federation tier.
	{"topk_p05_ms.fed-fanout", "ms", "lower", fed, "six busy goroutines on two cores: unsteady even at the 5th percentile"},
	{"history_p05_ms.fed-fanout", "ms", "lower", fed, "a sub-millisecond request fanned out to four members, mostly goroutine wake-ups"},
	{"topk_p50_ms.fed-fanout", "ms", "lower", fed, demoted},
	{"recent_p50_ms.fed-fanout", "ms", "lower", fed, demoted},
	{"history_p50_ms.fed-fanout", "ms", "lower", fed, demoted},
	{"read_kpoints_per_s.fed-fanout", "kpoints/s", "higher", fed, demoted},
	{"federation.retries", "count", "lower", fed, "must be 0"},
	{"federation.missing", "count", "lower", fed, "must be 0"},
	{"federation.serve_us.topk", "us", "lower", fed, "topk_p50_ms on fed-fanout"},
	{"federation.self_us.topk", "us", "lower", fed, movesFed},
	{"federation.member_wait_us.topk", "us", "lower", fed, "topk_p50_ms on fed-fanout"},
	{"federation.serve_us.recent", "us", "lower", fed, "recent_p50_ms on fed-fanout"},
	{"federation.self_us.recent", "us", "lower", fed, movesFed},
	{"federation.member_wait_us.recent", "us", "lower", fed, "recent_p50_ms on fed-fanout: the slowest member sets the answer's time"},
	{"federation.fanout_skew", "ratio", "lower", fed, "recent_p50_ms on fed-fanout"},
	{"federation.serve_us.history", "us", "lower", fed, "history_p50_ms on fed-fanout"},
	{"federation.self_us.history", "us", "lower", fed, "history_p50_ms on fed-fanout"},
	{"federation.member_wait_us.history", "us", "lower", fed, "history_p50_ms on fed-fanout"},
	{"federation.merge_us.topk", "us", "lower", fed, movesFed + "; nothing on query-direct"},
	{"federation.merge_us.recent", "us", "lower", fed, movesFed + "; nothing on query-direct"},
	{"federation.merge_ns_per_point", "ns", "lower", fed, movesFed + "; nothing on query-direct"},
	// The whole loop.
	{"sim_rate", "sim-s/wall-s", "higher", live, demoted},
	{"sample_to_decision_p50_ms", "ms", "lower", live, demoted + "; a 20 to 250 ms operation over a ramp has no fast tail to take"},
	{"sample_to_decision_p90_ms", "ms", "lower", live, demoted},
	{"ingest_ksamples_per_s.live-loop", "ksamples/s", "higher", live, demoted},
	{"flush_p50_ms.live-loop", "ms", "lower", live, demoted},
	{"cluster.advance_ms_per_epoch", "ms", "lower", live, "sim_rate on live-loop, nothing elsewhere"},
	{"cluster.samples_per_epoch", "count", "higher", live, "exact; the loop's input size"},
	{"cluster.advance_ns_per_sample", "ns", "lower", live, "sim_rate on live-loop"},
	{"resilience.retries", "count", "lower", live, "exact for a seed"},
	{"resilience.fallbacks", "count", "lower", live, "exact for a seed"},
	{"resilience.poll_success_share", "ratio", "higher", live, "exact for a seed: polls answered per attempt of the collection chain"},
	{"faults.gaps", "count", "lower", live, "exact for a seed"},
	{"telemetry.cursor_flush_ms_per_epoch", "ms", "lower", live, "flush_p05_ms and sample_to_decision_p50_ms on live-loop"},
	{"live.flush_p90_ms", "ms", "lower", live, "sample_to_decision_p90_ms: ingest waiting on a history scan that holds a shard lock"},
	{"powercap.observe_ms", "ms", "lower", live, movesDecide},
	{"powercap.step_us", "us", "lower", live, "sample_to_decision_p50_ms on live-loop (negligible)"},
	{"powercap.fresh_share", "ratio", "higher", live, "must be 1"},
	{"powercap.data_age_ms", "ms", "lower", live, "simulated age of the data a decision acted on"},
	{"obs.scrape_ms", "ms", "lower", live, "sim_rate on live-loop, one scrape in ten epochs"},
	{"live.reader_queries", "count", "higher", live, "the concurrent reader's work; not stationary"},
	{"live.reader_p50_ms", "ms", "lower", live, "the concurrent reader's latency; not stationary"},
	{"powercap.observe_resp_kb", "KiB", "lower", live, movesDecide},
	{"powercap.points_per_observe", "count", "lower", live, movesDecide},
}, perWorkloadLayers()...)

// perWorkloadLayers are the process-level and tracing-overhead numbers
// every section reports under its own name.
func perWorkloadLayers() []perLayer {
	var out []perLayer
	for _, w := range workloadNames {
		out = append(out,
			perLayer{"proc.cpu_s." + w, "s", "lower", w, "work moved off the timed path or onto the other core"},
			perLayer{"proc.alloc_mb." + w, "MB", "lower", w, "work moved into the allocator; tails through GC"},
			perLayer{"proc.gc_cycles." + w, "count", "lower", w, "tails through GC"},
			perLayer{"proc.gc_pause_ms." + w, "ms", "lower", w, "tails through GC"},
			perLayer{"proc.heap_peak_mb." + w, "MB", "lower", w, "memory held, so that a cache bought with it shows"},
			perLayer{"trace.overhead_share." + w, "ratio", "lower", w, "how much slower the workload's first metric reads with tracing on"})
	}
	return out
}
