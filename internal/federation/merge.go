package federation

import (
	"container/heap"
	"fmt"
	"slices"
	"sort"

	"envmon/internal/telemetry"
	"envmon/internal/telemetry/httpapi"
	"envmon/internal/telemetry/storage"
)

// Merge rules. The invariant every merge in this file maintains: the
// merged document is a pure function of the union of the members' data —
// byte-identical no matter how nodes are partitioned across members. That
// holds because (a) each member's per-node and per-series numbers are
// computed entirely on the member that owns the node, so re-partitioning
// never changes a value, only which member reports it; and (b) every
// cross-member fold here runs in a canonical order (node name, series
// key) independent of the member list.

// MemberTopK pairs a member's name with its /topk answer.
type MemberTopK struct {
	Member string
	Doc    httpapi.TopKResult
}

// topkCursor walks one member's ranked list during the k-way merge.
type topkCursor struct {
	member string
	nodes  []httpapi.NodePower
	i      int
}

func (c *topkCursor) head() httpapi.NodePower { return c.nodes[c.i] }

// topkHeap orders cursors by their head entry: the members' own ranking
// order (telemetry.CompareRank), then member name ascending — a stable
// cross-member tie-break.
type topkHeap []*topkCursor

func (h topkHeap) Len() int { return len(h) }
func (h topkHeap) Less(i, j int) bool {
	if c := telemetry.CompareRank(h[i].head(), h[j].head()); c != 0 {
		return c < 0
	}
	return h[i].member < h[j].member
}
func (h topkHeap) Swap(i, j int)            { h[i], h[j] = h[j], h[i] }
func (h *topkHeap) Push(x any)              { *h = append(*h, x.(*topkCursor)) }
func (h *topkHeap) Pop() any                { old := *h; n := len(old); c := old[n-1]; *h = old[:n-1]; return c }
func (h *topkHeap) headCursor() *topkCursor { return (*h)[0] }

// MergeTopK merges per-member rankings (each already in the store's
// order, telemetry.CompareRank) into the global top k.
// The fast path is a k-way merge of the members' partial heaps through one
// global heap. A node reported by several members (series spanning racks —
// outside the node-partitioned contract but handled) trips the slow path:
// per-node accumulation in member-name order, then a full stable re-sort.
//
// TotalWatts is recomputed by summing every node's watts in node-name
// order — the same canonical order a single store sums in — so the total
// is byte-identical under any partitioning, not a float fold in
// member-arrival order.
func MergeTopK(parts []MemberTopK, k int, domain string) httpapi.TopKResult {
	total := 0
	for _, p := range parts {
		total += len(p.Doc.Nodes)
	}
	merged := make([]httpapi.NodePower, 0, total)
	h := make(topkHeap, 0, len(parts))
	for _, p := range parts {
		if len(p.Doc.Nodes) > 0 {
			h = append(h, &topkCursor{member: p.Member, nodes: p.Doc.Nodes})
		}
	}
	heap.Init(&h)
	seen := make(map[string]bool, total)
	dup := false
	for h.Len() > 0 {
		c := h.headCursor()
		np := c.head()
		if seen[np.Node] {
			dup = true
			break
		}
		seen[np.Node] = true
		merged = append(merged, np)
		c.i++
		if c.i < len(c.nodes) {
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	if dup {
		merged = combineDuplicates(parts)
	}
	out := httpapi.TopKResult{
		Domain:     domain,
		TotalWatts: canonicalTotal(merged),
		Nodes:      merged,
	}
	if k > 0 && len(out.Nodes) > k {
		out.Nodes = out.Nodes[:k]
	}
	return out
}

// combineDuplicates is the spanning-node slow path: accumulate each node's
// watts across members in member-name order (deterministic for a fixed
// member set), then re-rank.
func combineDuplicates(parts []MemberTopK) []httpapi.NodePower {
	ordered := make([]MemberTopK, len(parts))
	copy(ordered, parts)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Member < ordered[j].Member })
	idx := make(map[string]int)
	var merged []httpapi.NodePower
	for _, p := range ordered {
		for _, np := range p.Doc.Nodes {
			if i, ok := idx[np.Node]; ok {
				merged[i].Watts += np.Watts
				merged[i].Series += np.Series
			} else {
				idx[np.Node] = len(merged)
				merged = append(merged, np)
			}
		}
	}
	sort.SliceStable(merged, func(i, j int) bool { return telemetry.CompareRank(merged[i], merged[j]) < 0 })
	return merged
}

// canonicalTotal sums the ranking's watts in node-name order — the order a
// single store's TopK sums in (its ranking is built from key-sorted
// frames), so federated and direct totals agree bit for bit.
func canonicalTotal(nodes []httpapi.NodePower) float64 {
	byNode := make([]httpapi.NodePower, len(nodes))
	copy(byNode, nodes)
	sort.Slice(byNode, func(i, j int) bool { return byNode[i].Node < byNode[j].Node })
	var total float64
	for _, np := range byNode {
		total += np.Watts
	}
	return total
}

// MemberQuery pairs a member's name with its /query answer.
type MemberQuery struct {
	Member string
	Doc    httpapi.QueryResult
}

// MergeFrames merges the members' frames into one key-sorted list — the
// order a single store serves, storage.KeyLess. In the node-partitioned
// case every series lives on exactly one member and this is a pure sorted
// union. A series key reported by several members is combined: points
// interleaved by timestamp, gap markers unioned (never dropped — a gap on
// any member is a gap in the federation's answer), and the window
// reduction recomputed from the combined points under agg.
//
// This is the merge Federator.Query runs on frames still on the wire
// (mergeWire), on frames already decoded: the same walk, the same combine.
func MergeFrames(parts []MemberQuery, agg string) []httpapi.Frame {
	lists := make([]memberFrames[httpapi.Frame], len(parts))
	total := 0
	for i, p := range parts {
		lists[i] = memberFrames[httpapi.Frame]{member: p.Member, frames: p.Doc.Frames}
		total += len(p.Doc.Frames)
	}
	out := make([]httpapi.Frame, 0, total)
	mergeByKey(lists, (*httpapi.Frame).Key, func(group []httpapi.Frame) {
		if len(group) == 1 {
			out = append(out, group[0])
		} else {
			out = append(out, combineFrames(group, agg))
		}
	})
	return out
}

// mergeWire is MergeFrames on frames that were checked and not decoded. A
// key one member holds — every key, under the node-partitioned contract —
// is passed on as the bytes that member sent; only a key several members
// report is decoded, combined and encoded again. The fork is taken from
// what the walk sees (a duplicate key), as MergeTopK takes its own.
// combined counts the frames that came of a combine; err is the first one
// that could not be encoded (a reduction that overflowed, say).
func mergeWire(lists []memberFrames[httpapi.WireFrame], agg string) (out []httpapi.WireFrame, combined int, err error) {
	total := 0
	for _, l := range lists {
		total += len(l.frames)
	}
	out = make([]httpapi.WireFrame, 0, total)
	fail := func(e error) {
		if err == nil {
			err = e
		}
	}
	key := func(w *httpapi.WireFrame) telemetry.SeriesKey { return w.Key }
	mergeByKey(lists, key, func(group []httpapi.WireFrame) {
		if len(group) == 1 {
			out = append(out, group[0])
			return
		}
		combined++
		frames := make([]httpapi.Frame, len(group))
		for i := range group {
			var derr error
			if frames[i], derr = group[i].Decode(); derr != nil {
				// Not reachable with bytes SplitQueryResult let through: it
				// checked them with the code that decodes them.
				fail(fmt.Errorf("federation: series %v as a member sent it: %w", group[i].Key, derr))
				return
			}
		}
		f := combineFrames(frames, agg)
		w, werr := f.Wire()
		if werr != nil {
			fail(werr)
		}
		out = append(out, w)
	})
	return out, combined, err
}

// memberFrames is one member's frames in a merge, typed or on the wire.
// The walk consumes frames from the front and keeps the head's key in key.
type memberFrames[F any] struct {
	member string
	frames []F
	key    telemetry.SeriesKey
}

// frameHeap orders the members' lists by their head frame: series key
// (storage.KeyLess), then member name ascending — the cross-member
// tie-break on a key several members report.
type frameHeap[F any] []*memberFrames[F]

func (h frameHeap[F]) Len() int { return len(h) }
func (h frameHeap[F]) Less(i, j int) bool {
	if h[i].key != h[j].key {
		return storage.KeyLess(h[i].key, h[j].key)
	}
	return h[i].member < h[j].member
}
func (h frameHeap[F]) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *frameHeap[F]) Push(x any)   { *h = append(*h, x.(*memberFrames[F])) }
func (h *frameHeap[F]) Pop() any     { old := *h; n := len(old); l := old[n-1]; *h = old[:n-1]; return l }

// mergeByKey is the /query merge walk: a k-way merge of the members'
// lists, each in the order a store serves it (a list that is not is
// stably sorted first), calling emit once per series key in key order
// with that key's frames — one frame, or for a series spanning members
// several, by member name and then by position in the member's list. The
// slice emit is handed is only good for the call.
func mergeByKey[F any](lists []memberFrames[F], key func(*F) telemetry.SeriesKey, emit func(group []F)) {
	h := make(frameHeap[F], 0, len(lists))
	for i := range lists {
		l := &lists[i]
		if len(l.frames) == 0 {
			continue
		}
		l.key = key(&l.frames[0])
		for j, prev := 1, l.key; j < len(l.frames); j++ {
			k := key(&l.frames[j])
			if storage.KeyLess(k, prev) {
				sorted := slices.Clone(l.frames)
				sort.SliceStable(sorted, func(a, b int) bool { return storage.KeyLess(key(&sorted[a]), key(&sorted[b])) })
				l.frames, l.key = sorted, key(&sorted[0])
				break
			}
			prev = k
		}
		h = append(h, l)
	}
	heap.Init(&h)
	// pop takes the frame at the top of the heap, as a one-frame slice of
	// its member's list.
	pop := func() []F {
		l := h[0]
		head := l.frames[:1:1]
		if l.frames = l.frames[1:]; len(l.frames) > 0 {
			l.key = key(&l.frames[0])
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
		return head
	}
	var group []F
	for len(h) > 0 {
		k := h[0].key
		first := pop()
		if len(h) == 0 || h[0].key != k {
			emit(first)
			continue
		}
		group = append(group[:0], first...)
		for len(h) > 0 && h[0].key == k {
			group = append(group, pop()...)
		}
		emit(group)
	}
}

// combineFrames folds same-key frames from several members into one:
// points interleaved by timestamp (stable, so equal-timestamp points keep
// member-name order), gaps unioned sorted and deduplicated, and the
// window reduction recomputed from the combined points.
func combineFrames(frames []httpapi.Frame, agg string) httpapi.Frame {
	out := frames[0]
	out.Points = nil
	out.GapsNS = nil
	out.Reduced = nil
	for _, f := range frames {
		out.Points = append(out.Points, f.Points...)
		out.GapsNS = append(out.GapsNS, f.GapsNS...)
	}
	sort.SliceStable(out.Points, func(i, j int) bool { return out.Points[i].T < out.Points[j].T })
	sort.Slice(out.GapsNS, func(i, j int) bool { return out.GapsNS[i] < out.GapsNS[j] })
	dedup := out.GapsNS[:0]
	for i, g := range out.GapsNS {
		if i == 0 || g != out.GapsNS[i-1] {
			dedup = append(dedup, g)
		}
	}
	out.GapsNS = dedup
	if a, err := telemetry.ParseAggregate(agg); err == nil && a != telemetry.AggNone && len(out.Points) > 0 {
		out.Reduced = reducePoints(out.Points, a)
	}
	return out
}

// reducePoints recomputes a window reduction over combined points. Mean is
// count-weighted (each point's Mean×Count reconstructs its bucket sum),
// matching the store's bucket fold.
func reducePoints(points []httpapi.Point, a telemetry.Aggregate) *float64 {
	var v float64
	switch a {
	case telemetry.AggMean:
		var sum float64
		var count int
		for _, p := range points {
			sum += p.Mean * float64(p.Count)
			count += p.Count
		}
		if count == 0 {
			return nil
		}
		v = sum / float64(count)
	case telemetry.AggMin:
		v = points[0].Min
		for _, p := range points[1:] {
			if p.Min < v {
				v = p.Min
			}
		}
	case telemetry.AggMax:
		v = points[0].Max
		for _, p := range points[1:] {
			if p.Max > v {
				v = p.Max
			}
		}
	case telemetry.AggLast:
		v = points[len(points)-1].Last
	default:
		return nil
	}
	return &v
}

// simClocks folds the sim_now_ns of answering members, for every merged
// document that carries one. A member that reports 0 has no clock to
// report — a 404 mapped to an empty document, a server without a
// simulation clock — and is skipped: "I don't hold this node" says
// nothing about time, and folding its zero in would erase the field
// under re-partitioning. /query and /topk serve min: freshness judged
// against the laggiest clock can only overestimate age, the fail-safe
// direction for a power-capping consumer. /healthz serves max, and
// max − min as the skew.
type simClocks struct{ min, max int64 }

func (c *simClocks) add(ns int64) {
	if ns == 0 {
		return
	}
	if c.min == 0 || ns < c.min {
		c.min = ns
	}
	if ns > c.max {
		c.max = ns
	}
}

// mergeHealth folds the members' health documents into the federated one:
// counters summed, sim-now by simClocks, status degraded if any answering
// member self-reports degraded. The caller overlays missing members on
// top.
func mergeHealth(parts []httpapi.Health, members int) httpapi.Health {
	h := httpapi.Health{
		Status:     "ok",
		Federation: &httpapi.FederationHealth{Members: members},
	}
	var clocks simClocks
	for _, p := range parts {
		h.Series += p.Series
		h.Samples += p.Samples
		h.Gaps += p.Gaps
		clocks.add(p.SimNowNS)
		if p.Status == "ok" {
			h.Federation.Healthy++
		} else {
			h.Federation.Degraded++
			h.Status = "degraded"
		}
	}
	h.SimNowNS = clocks.max
	h.Federation.SimSkewNS = clocks.max - clocks.min
	return h
}
