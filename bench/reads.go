package main

import (
	"context"
	"fmt"
	"net/url"
	"time"

	"envmon/internal/telemetry/client"
	"envmon/internal/telemetry/httpapi"
)

// readTarget is an endpoint under closed-loop read load together with
// what the harness knows its replies must contain.
type readTarget struct {
	workload string
	cl       *client.Client
	now      time.Duration // the server's simulated now; fixed while reads run
	nodes    int           // history targets are drawn from [0, nodes)
	// want is the reply shape of a request: frames (or ranked nodes, for
	// topk) and decoded points.
	want func(o op) (frames, points int)
}

// do issues one request and reports the points the client decoded, or why
// the reply is not the one the workload must produce. This is correctness
// check (b): every reply is complete, not degraded, and carries exactly
// the expected frames and points.
func (t *readTarget) do(ctx context.Context, o op) (points int, err error) {
	wantFrames, wantPoints := t.want(o)
	var frames int
	var degraded *httpapi.Degraded
	switch o.class {
	case opTopK:
		var doc httpapi.TopKResult
		doc, err = t.cl.TopK(ctx, client.TopKParams{K: 10, From: t.now - window})
		frames, degraded = len(doc.Nodes), doc.Degraded
	default:
		var doc httpapi.QueryResult
		doc, err = t.cl.QueryFull(ctx, t.params(o))
		frames, degraded = len(doc.Frames), doc.Degraded
		for _, f := range doc.Frames {
			points += len(f.Points)
		}
	}
	switch {
	case err != nil:
		return 0, err
	case degraded != nil:
		return 0, fmt.Errorf("%s: degraded reply, missing %v", classNames[o.class], degraded.Missing)
	case frames != wantFrames || points != wantPoints:
		return 0, fmt.Errorf("%s: reply has %d frames %d points, want %d and %d",
			classNames[o.class], frames, points, wantFrames, wantPoints)
	}
	return points, nil
}

func (t *readTarget) params(o op) client.QueryParams {
	if o.class == opHistory {
		return client.QueryParams{Node: nodeName(o.node), Domain: powerDomain}
	}
	return client.QueryParams{Domain: powerDomain, Aggregate: "last", From: t.now - window}
}

// path renders the request as the client sends it, for the probes and
// checks that bypass the client.
func (t *readTarget) path(o op) string {
	v := url.Values{}
	switch o.class {
	case opTopK:
		v.Set("k", "10")
		v.Set("from", (t.now - window).String())
		return "/topk?" + v.Encode()
	case opHistory:
		v.Set("node", nodeName(o.node))
		v.Set("domain", powerDomain)
	default:
		v.Set("domain", powerDomain)
		v.Set("agg", "last")
		v.Set("from", (t.now - window).String())
	}
	return "/query?" + v.Encode()
}

// warmup sends n unmeasured requests per class so connections, caches and
// lazily built state exist before the first timed request.
func (t *readTarget) warmup(n int) error {
	for class := 0; class < numClasses; class++ {
		for i := 0; i < n; i++ {
			if _, err := t.do(context.Background(), op{class: class, node: i % t.nodes}); err != nil {
				return fmt.Errorf("%s warm-up: %w", t.workload, err)
			}
		}
	}
	return nil
}

// readOut is a read section's result plus the raw timings and spans the
// span analysis joins.
type readOut struct {
	section
	target *readTarget
	latMS  [numClasses][]float64
	points int
	usage  procUsage
	spans  []span
}

func newReadOut(t *readTarget) *readOut {
	out := &readOut{target: t}
	out.Workload = t.workload
	out.Sizes = map[string]int{}
	return out
}

// run drives one closed-loop client through ops: the next request leaves
// only when the previous reply has been decoded and checked, as envtop
// -remote and envcapd behave. Failed requests count against Attempted and
// contribute no latency sample. A section may call run more than once: the
// 5th percentile wants its samples spread over as much of the run as
// possible, so that a busy spell of the host shorter than the run leaves
// some of them undisturbed.
func (out *readOut) run(ops []op, tr *tracer) {
	t := out.target
	tr.resetOpen()
	mark := tr.mark()
	ctx := context.Background()
	first := out.Attempted
	out.usage.start()
	for i, o := range ops {
		var n int
		var err error
		start := time.Now()
		tr.call("client", o.class, first+i+1, func() { n, err = t.do(ctx, o) })
		ms := float64(time.Since(start).Nanoseconds()) / 1e6
		out.Attempted++
		out.Sizes[classNames[o.class]]++
		if err != nil {
			out.Failed++
			fmt.Printf("# %s request %d failed: %v\n", t.workload, first+i, err)
			continue
		}
		out.points += n
		out.latMS[o.class] = append(out.latMS[o.class], ms)
	}
	out.usage.stop()
	tr.resetOpen() // requests the harness sends from here on belong to no traced request
	out.spans = append(out.spans, tr.since(mark)...)
}

// finish turns the samples into the section's metrics.
func (out *readOut) finish() {
	out.WallS = out.usage.wall.Seconds()
	out.usage.report(&out.section)
	for class, name := range classNames {
		if xs := out.latMS[class]; len(xs) > 0 {
			out.own(name+"_p05_ms", low(xs), "ms", len(xs))
			out.own(name+"_p50_ms", median(xs), "ms", len(xs))
		}
	}
	out.own("read_kpoints_per_s", float64(out.points)/out.WallS/1000, "kpoints/s", 0)
}
