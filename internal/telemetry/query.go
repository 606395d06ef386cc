package telemetry

import (
	"fmt"
	"slices"
	"strings"
	"time"
)

// Aggregate selects the window reduction a query computes per frame in
// addition to the point list.
type Aggregate uint8

const (
	// AggNone skips the reduction; the frame carries points only.
	AggNone Aggregate = iota
	// AggMean reduces to the sample-weighted mean over the window.
	AggMean
	// AggMin reduces to the minimum over the window.
	AggMin
	// AggMax reduces to the maximum over the window.
	AggMax
	// AggLast reduces to the newest value in the window.
	AggLast
)

func (a Aggregate) String() string {
	switch a {
	case AggNone:
		return "none"
	case AggMean:
		return "mean"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggLast:
		return "last"
	default:
		return fmt.Sprintf("Aggregate(%d)", uint8(a))
	}
}

// ParseAggregate is the inverse of String, for query parameters. The empty
// string selects AggNone.
func ParseAggregate(s string) (Aggregate, error) {
	switch s {
	case "", "none":
		return AggNone, nil
	case "mean":
		return AggMean, nil
	case "min":
		return AggMin, nil
	case "max":
		return AggMax, nil
	case "last":
		return AggLast, nil
	default:
		return AggNone, fmt.Errorf("telemetry: unknown aggregate %q (none|mean|min|max|last)", s)
	}
}

// Query selects series and a time window.
//
// Node, Backend, and Domain match exactly; an empty field matches every
// series. The window is half-open [From, To); To <= 0 means unbounded.
// At Raw resolution the frame carries one point per sample still in the
// ring; at a rollup resolution it carries one point per bucket that
// overlaps the window.
type Query struct {
	Node       string
	Backend    string
	Domain     string
	From       time.Duration
	To         time.Duration
	Resolution Resolution
	Aggregate  Aggregate
}

func (q Query) matches(k SeriesKey) bool {
	return (q.Node == "" || q.Node == k.Node) &&
		(q.Backend == "" || q.Backend == k.Backend) &&
		(q.Domain == "" || q.Domain == k.Domain)
}

// FramePoint is one resolved point: a raw sample (Count 1, all four
// statistics equal to the value) or one rollup bucket. The tags are the
// /query wire's: httpapi serves the store's points as they are.
type FramePoint struct {
	T     time.Duration `json:"t_ns"` // sample time, or bucket start
	Min   float64       `json:"min"`
	Max   float64       `json:"max"`
	Mean  float64       `json:"mean"`
	Last  float64       `json:"last"`
	Count int           `json:"count"`
}

// Frame is the query result for one matching series.
type Frame struct {
	Key        SeriesKey
	Unit       string
	Resolution Resolution
	Points     []FramePoint
	// Gaps are the failed-poll instants inside the window still held in the
	// gap ring: explicit "the mechanism did not answer here" markers, so a
	// consumer never mistakes missing data for zero power. Served at every
	// resolution.
	Gaps []time.Duration
	// Reduced is the window reduction selected by Query.Aggregate;
	// ReducedOK reports whether it is valid (a non-AggNone aggregate over
	// a non-empty window).
	Reduced   float64
	ReducedOK bool
}

// Query runs q and returns one frame per matching series, sorted by key.
// Frames are deep copies: the caller may hold them while ingest continues.
// Results are a pure function of each series' ingest stream —
// byte-identical at any shard count. A persistent store serves the full
// history: each frame stitches sealed block data and the in-memory tail
// together along the series' persisted watermark (block data first, then
// ring entries past the watermark), so a restart changes nothing a reader
// can observe.
func (st *Store) Query(q Query) []Frame { return st.query(q, true) }

// query is Query; with points false every frame carries its reduction alone,
// no points and no gap markers, which is all TopK folds.
func (st *Store) query(q Query, points bool) []Frame {
	if st.obs == nil {
		return st.runQuery(q, points)
	}
	start := time.Now()
	out := st.runQuery(q, points)
	st.observeQuery(q, len(out), time.Since(start))
	return out
}

func (st *Store) runQuery(q Query, points bool) []Frame {
	o := st.keyOrder(func(s *series) bool { return q.matches(s.key) })
	if o.n == 0 {
		return nil
	}
	out := make([]Frame, o.n)
	st.eachInOrder(o, func(at int, s *series) { out[at] = st.buildFrame(s, q, points) })
	return out
}

// The instant each kind of stream entry is ordered and windowed by.
func pointT(p Point) time.Duration       { return p.T }
func gapT(t time.Duration) time.Duration { return t }
func bucketT(b Bucket) time.Duration     { return b.Start }

// buildFrame resolves one series against the query window. Called with the
// owning shard's read lock held; block reads nest the block store's read
// lock inside it (the engine's fixed lock order). Block read failures are
// counted in StorageStats and degrade the frame to what memory holds —
// queries never fail outright. A window reads only what it can hold: the
// ring entries inside it, found by bisection, and block chunks only when
// the window reaches below the seam. With points false the frame is the
// reduction alone.
func (st *Store) buildFrame(s *series, q Query, points bool) Frame {
	f := Frame{Key: s.key, Unit: s.unit, Resolution: q.Resolution}
	// red accumulates the window reduction across points.
	var red Bucket
	add := func(p FramePoint, sum float64) {
		if points {
			f.Points = append(f.Points, p)
		}
		if red.Count == 0 {
			red = Bucket{Count: p.Count, Min: p.Min, Max: p.Max, Sum: sum, Last: p.Last}
			return
		}
		if p.Min < red.Min {
			red.Min = p.Min
		}
		if p.Max > red.Max {
			red.Max = p.Max
		}
		red.Sum += sum
		red.Last = p.Last
		red.Count += p.Count
	}
	// Each kind is served the same way: block data for the sealed prefix,
	// then the ring from the seam on. The point list is sized once: the
	// ring's part exactly, the blocks' from their index.
	if q.Resolution == Raw {
		point := func(p Point) {
			add(FramePoint{T: p.T, Min: p.V, Max: p.V, Mean: p.V, Last: p.V, Count: 1}, p.V)
		}
		i, j := s.raw.window(q.From, q.To, pointT)
		sealed := st.blocks != nil && s.raw.sealedFrom(q.From, pointT)
		if points {
			n := j - i
			if sealed {
				n += st.blocks.PointsIn(s.key, q.From, q.To)
			}
			f.Points = make([]FramePoint, 0, n)
		}
		if sealed {
			st.noteRead(st.blocks.EachPoint(s.key, q.From, q.To, point))
		}
		for ; i < j; i++ {
			point(s.raw.at(i))
		}
	} else {
		period := q.Resolution.Period()
		lvl := int(q.Resolution - 1)
		bucket := func(b Bucket) {
			add(FramePoint{T: b.Start, Min: b.Min, Max: b.Max, Mean: b.Mean(), Last: b.Last, Count: b.Count}, b.Sum)
		}
		rb, open := &s.roll[lvl], &s.open[lvl]
		// A bucket overlaps the window when Start+period > From. The open
		// bucket is newer than every closed one, so it comes last.
		lo := q.From - period + 1
		i, j := rb.window(lo, q.To, bucketT)
		inWindow := open.Count > 0 && open.Start >= lo && (q.To <= 0 || open.Start < q.To)
		if points {
			n := j - i
			if inWindow {
				n++
			}
			f.Points = make([]FramePoint, 0, n)
		}
		if st.blocks != nil && rb.sealedFrom(lo, bucketT) {
			st.noteRead(st.blocks.EachClosedBucket(s.key, lvl, period, q.From, q.To, bucket))
		}
		for ; i < j; i++ {
			bucket(rb.at(i))
		}
		if inWindow {
			bucket(*open)
		}
	}
	if len(f.Points) == 0 {
		f.Points = nil // an empty window reads as one that was never sized
	}
	if points {
		i, j := s.gaps.window(q.From, q.To, gapT)
		if st.blocks != nil && s.gaps.sealedFrom(q.From, gapT) {
			st.noteRead(st.blocks.EachGap(s.key, q.From, q.To, func(t time.Duration) { f.Gaps = append(f.Gaps, t) }))
		}
		for ; i < j; i++ {
			f.Gaps = append(f.Gaps, s.gaps.at(i))
		}
	}
	if q.Aggregate != AggNone && red.Count > 0 {
		f.ReducedOK = true
		switch q.Aggregate {
		case AggMean:
			f.Reduced = red.Mean()
		case AggMin:
			f.Reduced = red.Min
		case AggMax:
			f.Reduced = red.Max
		case AggLast:
			f.Reduced = red.Last
		}
	}
	return f
}

// noteRead counts a failed block read; the frame degrades to what memory
// holds.
func (st *Store) noteRead(err error) {
	if err != nil {
		st.readErrs.Add(1)
	}
}

// NodePower is one entry of a TopK ranking: a node and its mean power over
// the queried window, summed across that node's matching series. The tags
// are the /topk wire's.
type NodePower struct {
	Node   string  `json:"node"`
	Watts  float64 `json:"watts"`
	Series int     `json:"series"` // matching series that contributed
}

// PowerDomain resolves a caller's domain selection — TopK's, the /topk
// handlers', the power-cap sources' — to the measurement domain that is
// queried and reported as a node's power: the empty string selects
// "Total Power".
func PowerDomain(domain string) string {
	if domain == "" {
		return "Total Power"
	}
	return domain
}

// CompareRank is the ranking order of every /topk answer, from one store
// or merged across many: watts descending, node name ascending on ties.
// Negative when a ranks before b.
func CompareRank(a, b NodePower) int {
	if a.Watts != b.Watts {
		if a.Watts > b.Watts {
			return -1
		}
		return 1
	}
	return strings.Compare(a.Node, b.Node)
}

// TopK ranks nodes by mean power over [from, to) at the given resolution
// and returns the top k (k <= 0 returns every node) plus the cluster-wide
// total — the "which jobs are burning the machine" and "what is the room
// drawing" questions an operator service answers. domain selects which
// measurement domain counts as power (see PowerDomain). A node's watts are
// the sum over its matching backends. Ordering is deterministic:
// CompareRank. Each series' window is folded without building its points.
func (st *Store) TopK(k int, domain string, from, to time.Duration, res Resolution) (ranked []NodePower, total float64) {
	frames := st.query(Query{Domain: PowerDomain(domain), From: from, To: to, Resolution: res, Aggregate: AggMean}, false)
	// Frames arrive sorted by key, so same-node frames are adjacent and
	// the fold is deterministic.
	for _, f := range frames {
		if !f.ReducedOK {
			continue
		}
		if n := len(ranked); n > 0 && ranked[n-1].Node == f.Key.Node {
			ranked[n-1].Watts += f.Reduced
			ranked[n-1].Series++
		} else {
			ranked = append(ranked, NodePower{Node: f.Key.Node, Watts: f.Reduced, Series: 1})
		}
	}
	for _, np := range ranked {
		total += np.Watts
	}
	slices.SortFunc(ranked, CompareRank)
	if k > 0 && len(ranked) > k {
		ranked = ranked[:k]
	}
	return ranked, total
}
