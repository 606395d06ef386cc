package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"envmon/internal/federation"
	"envmon/internal/telemetry"
	"envmon/internal/telemetry/block"
	"envmon/internal/telemetry/client"
	"envmon/internal/telemetry/storage"
	"envmon/internal/telemetry/wal"
)

// Probes replay a workload's own inputs into one layer's public functions
// in isolation, single-threaded, after the timed sections of a traced run.
// They say what a layer costs when nothing above or beside it runs, which
// is the most a change to that layer alone can save end to end.

// probeEpochs bounds the slice of the write stream the write-path probes
// replay: one full ring generation.
const probeEpochs = 4096

// timeMedian runs fn reps times and returns the median wall in
// nanoseconds.
func timeMedian(reps int, fn func()) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		start := time.Now()
		fn()
		xs[i] = float64(time.Since(start).Nanoseconds())
	}
	return median(xs)
}

// probeWrite costs the layers under Store.Ingest one by one.
func probeWrite(dir string, w *writeOut) error {
	s := w.stream
	epochs := min(w.sizes.Epochs, probeEpochs)
	records := float64(epochs * len(s.keys))

	// Head alone: the same stream into a memory-only store.
	head := telemetry.New(telemetry.Options{Shards: storeShards})
	instrument(head)
	vals := make([]float64, len(s.keys))
	var headNS int64
	for j := 0; j < epochs; j++ {
		s.fill(vals, j)
		start := time.Now()
		if _, err := s.ingestEpoch(head, j, vals); err != nil {
			return err
		}
		headNS += time.Since(start).Nanoseconds()
	}
	head.Close()
	headPer := float64(headNS) / records
	w.layer("telemetry.ingest_ns_per_sample", headPer, "ns", 0)
	w.layer("telemetry.journal_ns_per_sample", w.nsPerSample-headPer, "ns", 0)

	// Journal alone: the same records through the WAL's own appenders.
	journal, err := wal.Create(filepath.Join(dir, "probe-wal"), storeShards)
	if err != nil {
		return err
	}
	refs := make([]uint64, len(s.keys))
	shards := make([]*wal.Shard, len(s.keys))
	for ki, key := range s.keys {
		shards[ki] = journal.Shard(int(key.Hash() % storeShards))
		if refs[ki], err = shards[ki].AppendSeries(key, s.units[ki]); err != nil {
			return err
		}
	}
	samples := make([]uint64, len(s.keys))
	gaps := make([]uint64, len(s.keys))
	var walNS int64
	for j := 0; j < epochs; j++ {
		s.fill(vals, j)
		start := time.Now()
		for ki := range s.keys {
			if s.gap(j, ki) {
				err = shards[ki].AppendGap(refs[ki], gaps[ki], s.at(j))
				gaps[ki]++
			} else {
				err = shards[ki].AppendSample(refs[ki], samples[ki], s.at(j), vals[ki])
				samples[ki]++
			}
			if err != nil {
				return err
			}
		}
		walNS += time.Since(start).Nanoseconds()
	}
	if err := journal.Close(); err != nil {
		return err
	}
	w.layer("wal.append_ns_per_sample", float64(walNS)/records, "ns", 0)

	var replayErr error
	replayNS := timeMedian(3, func() {
		if _, _, err := wal.Replay(filepath.Join(w.snapshotDir, "wal")); err != nil {
			replayErr = err
		}
	})
	if replayErr != nil {
		return replayErr
	}
	w.layer("wal.replay_ms", replayNS/1e6, "ms", 3)

	// Block codec alone: every series' points through the Gorilla chunk
	// encoder and back.
	var encNS, decNS int64
	points := 0
	var chunk []byte
	var pts, back []storage.Point
	for ki := range s.keys {
		pts = pts[:0]
		for j := 0; j < epochs; j++ {
			if !s.gap(j, ki) {
				pts = append(pts, storage.Point{T: s.at(j), V: s.value(j, ki)})
			}
		}
		start := time.Now()
		chunk = storage.EncodePoints(chunk[:0], pts)
		mid := time.Now()
		back, err = storage.DecodePoints(back[:0], chunk, len(pts))
		decNS += time.Since(mid).Nanoseconds()
		encNS += mid.Sub(start).Nanoseconds()
		if err != nil {
			return err
		}
		points += len(back)
	}
	w.layer("storage.encode_ns_per_point", float64(encNS)/float64(points), "ns", 0)
	w.layer("storage.decode_ns_per_point", float64(decNS)/float64(points), "ns", 0)
	return nil
}

// probeDirect costs the read path of one envmond from the bottom up:
// block scan, store query, HTTP handler without a socket.
func probeDirect(d *directStack, sealedBlocks string, out *readOut) error {
	t := &d.target
	sensors := len(d.stream.keys) / t.nodes

	// The write section's store is flushed and closed: scan its blocks the
	// way a history query does, without the store above them.
	blocks, err := block.Open(sealedBlocks)
	if err != nil {
		return err
	}
	defer blocks.Close()
	var scanned int
	start := time.Now()
	for node := 0; node < t.nodes; node++ {
		if err := blocks.EachPoint(d.stream.keys[node*sensors], 0, 0, func(storage.Point) { scanned++ }); err != nil {
			return err
		}
	}
	out.layer("block.scan_ns_per_point", float64(time.Since(start).Nanoseconds())/float64(scanned), "ns", 0)

	reps := [numClasses]int{opTopK: 50, opRecent: 50, opHistory: 10}
	var storeUS, handlerUS [numClasses]float64
	var bodyPoints [numClasses]int
	var handlerAlloc [numClasses]uint64
	for class, name := range classNames {
		o := op{class: class, node: 0}
		_, bodyPoints[class] = t.want(o)
		storeUS[class] = timeMedian(reps[class], func() {
			switch class {
			case opTopK:
				d.store.TopK(10, "", t.now-window, 0, telemetry.Raw)
			case opHistory:
				d.store.Query(telemetry.Query{Node: nodeName(o.node), Domain: powerDomain})
			default:
				d.store.Query(telemetry.Query{Domain: powerDomain, From: t.now - window, Aggregate: telemetry.AggLast})
			}
		}) / 1e3
		req := httptest.NewRequest(http.MethodGet, t.path(o), nil)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		handlerUS[class] = timeMedian(reps[class], func() {
			d.api.ServeHTTP(httptest.NewRecorder(), req)
		}) / 1e3
		runtime.ReadMemStats(&after)
		handlerAlloc[class] = (after.TotalAlloc - before.TotalAlloc) / uint64(reps[class])
		out.layer("telemetry."+name+"_us", storeUS[class], "us", reps[class])
		out.layer("httpapi."+name+"_us", handlerUS[class], "us", reps[class])
	}
	// Frame copy + JSON encode per point, on the class with the most
	// points per reply.
	h := float64(bodyPoints[opHistory])
	out.layer("httpapi.encode_ns_per_point", (handlerUS[opHistory]-storeUS[opHistory])*1e3/h, "ns", reps[opHistory])
	out.layer("httpapi.alloc_b_per_point", float64(handlerAlloc[opHistory])/h, "B", 0)
	return nil
}

// probeFed costs the merge alone, over the parts one client call per
// member returns.
func probeFed(f *fedStack, out *readOut) error {
	ctx := context.Background()
	t := &f.target
	var topks []federation.MemberTopK
	var queries []federation.MemberQuery
	points := 0
	for i, m := range f.members {
		cl := client.New(m.url)
		tk, err := cl.TopK(ctx, client.TopKParams{K: -1, From: t.now - window})
		if err != nil {
			return err
		}
		q, err := cl.QueryFull(ctx, t.params(op{class: opRecent}))
		if err != nil {
			return err
		}
		name := f.front.fed.MemberNames()[i]
		topks = append(topks, federation.MemberTopK{Member: name, Doc: tk})
		queries = append(queries, federation.MemberQuery{Member: name, Doc: q})
		for _, fr := range q.Frames {
			points += len(fr.Points)
		}
	}
	const reps = 20
	topkNS := timeMedian(reps, func() { federation.MergeTopK(topks, 10, powerDomain) })
	recentNS := timeMedian(reps, func() { federation.MergeFrames(queries, "last") })
	out.layer("federation.merge_us.topk", topkNS/1e3, "us", reps)
	out.layer("federation.merge_us.recent", recentNS/1e3, "us", reps)
	out.layer("federation.merge_ns_per_point", recentNS/float64(points), "ns", reps)
	return nil
}

// fedCounts reads the federation tier's own failure accounting: member
// calls beyond one per member per request are retries, and a response
// missing a member is counted by the front-end itself. Both must be zero
// on a healthy loopback fleet.
func fedCounts(f *fedStack, out *readOut) error {
	snap, err := scrape(f.front.reg)
	if err != nil {
		return err
	}
	calls, _ := snap.Sum("envfed_member_request_seconds_count")
	topk, _ := snap.Value(`envfed_http_requests_total{endpoint="topk"}`)
	query, _ := snap.Value(`envfed_http_requests_total{endpoint="query"}`)
	missing, _ := snap.Value("envfed_partial_responses_total")
	out.layer("federation.retries", calls-float64(len(f.members))*(topk+query), "count", 0)
	out.layer("federation.missing", missing, "count", 0)
	return nil
}
