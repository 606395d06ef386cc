package telemetry

import (
	"fmt"
	"slices"
	"strings"
	"time"
)

// Aggregate selects the window reduction a query computes per frame in
// addition to the columns.
type Aggregate uint8

const (
	// AggNone skips the reduction; the frame carries its columns only.
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
// At Raw resolution the frame carries one entry per sample in the window;
// at a rollup resolution it carries one per bucket that overlaps the
// window.
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

// FramePoint is one sample or bucket of a frame widened into an object, a
// raw sample as a bucket of one (Count 1, all four statistics equal to the
// value). Only the two shims bench/ reads build it, Store.Query and
// client's QueryFull; ROADMAP item 6 deletes all three.
type FramePoint struct {
	T     time.Duration // bucket start, or sample time
	Min   float64
	Max   float64
	Mean  float64
	Last  float64
	Count int
}

// Buckets is a rollup frame's bucket columns beside its TNS (the starts)
// and V (the means). The tags are the /query wire's.
type Buckets struct {
	Min   []float64 `json:"min,omitempty"`
	Max   []float64 `json:"max,omitempty"`
	Last  []float64 `json:"last,omitempty"`
	Count []int     `json:"count,omitempty"`
}

// Frame is the query result for one matching series, as columns: TNS and
// V, the sample times and values at Raw or the bucket starts and means at
// a rollup resolution, and a rollup frame's Buckets too. A window that
// holds nothing leaves every column nil.
type Frame struct {
	Key        SeriesKey
	Unit       string
	Resolution Resolution
	TNS        []time.Duration
	V          []float64
	Buckets    *Buckets
	Points     []FramePoint // the columns widened, by the Store.Query shim only
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

// Frames runs q and returns one frame per matching series, sorted by key.
// Frames are deep copies: the caller may hold them while ingest continues.
// Results are a pure function of each series' ingest stream —
// byte-identical at any shard count. A persistent store serves the full
// history: each frame stitches sealed block data and the in-memory tail
// together along the series' persisted watermark (block data first, then
// ring entries past the watermark), so a restart changes nothing a reader
// can observe.
func (st *Store) Frames(q Query) (out []Frame) {
	start := time.Now()
	if o := st.keyOrder(q); len(o.placed) > 0 {
		out = make([]Frame, len(o.placed))
		st.eachInOrder(o, func(at int, s *series) {
			st.buildFrame(&out[at], s, q)
			out[at].Gaps = st.gapsIn(s, q)
		})
	}
	st.observeQuery(q, len(out), time.Since(start))
	return out
}

// Query is Frames with each frame's columns widened into Points, as bench/
// reads them; ROADMAP item 6 deletes it. Nothing else may call it
// (TestArchitecture/raw-columns).
func (st *Store) Query(q Query) []Frame {
	frames := st.Frames(q)
	for i := range frames {
		f := &frames[i]
		if len(f.TNS) > 0 {
			f.Points = make([]FramePoint, len(f.TNS))
			for j, v := range f.V {
				p := FramePoint{T: f.TNS[j], Min: v, Max: v, Mean: v, Last: v, Count: 1}
				if b := f.Buckets; b != nil {
					p.Min, p.Max, p.Last, p.Count = b.Min[j], b.Max[j], b.Last[j], b.Count[j]
				}
				f.Points[j] = p
			}
		}
		f.TNS, f.V, f.Buckets = nil, nil, nil
	}
	return frames
}

// The instant each kind of stream entry is ordered and windowed by.
func pointT(p Point) time.Duration       { return p.T }
func gapT(t time.Duration) time.Duration { return t }
func bucketT(b Bucket) time.Duration     { return b.Start }

// buildFrame resolves one series against the query window into f, its
// columns and reduction but not its gap markers (gapsIn). Called with the
// owning shard's read lock held; block reads nest the block store's read
// lock inside it (the engine's fixed lock order). Block read failures are
// counted in StorageStats and degrade the frame to what memory holds —
// queries never fail outright. A window reads only what it can hold: the
// ring entries inside it, found by bisection, and block chunks only when
// the window reaches below the seam. f's columns are cut and regrown only
// past capacity: a lent frame reuses them, a zero frame gets exact ones.
func (st *Store) buildFrame(f *Frame, s *series, q Query) {
	f.Key, f.Unit, f.Resolution, f.Reduced, f.ReducedOK = s.key, s.unit, q.Resolution, 0, false
	// red accumulates the window reduction across samples or buckets.
	var red Bucket
	// Each kind is served the same way: block data for the sealed prefix,
	// then the ring from the seam on. The columns are sized once: the
	// ring's part exactly, the blocks' from their index.
	if q.Resolution == Raw {
		i, j := s.raw.window(q.From, q.To, pointT)
		sealed := st.blocks != nil && s.raw.sealedFrom(q.From, pointT)
		n := j - i
		if sealed {
			n += st.blocks.PointsIn(s.key, q.From, q.To)
		}
		tns, v := cut(f.TNS, n), cut(f.V, n)
		if sealed {
			st.noteRead(st.blocks.EachPoint(s.key, q.From, q.To, func(p Point) {
				tns, v = append(tns, p.T), append(v, p.V)
			}))
		}
		for ; i < j; i++ {
			p := s.raw.at(i)
			tns, v = append(tns, p.T), append(v, p.V)
		}
		f.TNS, f.V = tns, v
		red = foldRaw(v)
	} else {
		period := q.Resolution.Period()
		lvl := int(q.Resolution - 1)
		rb, open := &s.roll[lvl], &s.open[lvl]
		// A bucket overlaps the window when Start+period > From. The open
		// bucket is newer than every closed one, so it comes last.
		lo := q.From - period + 1
		i, j := rb.window(lo, q.To, bucketT)
		inWindow := open.Count > 0 && open.Start >= lo && (q.To <= 0 || open.Start < q.To)
		n := j - i
		if inWindow {
			n++
		}
		cols := f.Buckets
		if cols == nil {
			cols = new(Buckets)
		}
		f.TNS, f.V, f.Buckets = cut(f.TNS, n), cut(f.V, n), cols
		cols.Min, cols.Max, cols.Last, cols.Count = cut(cols.Min, n), cut(cols.Max, n), cut(cols.Last, n), cut(cols.Count, n)
		bucket := func(b Bucket) {
			f.TNS, f.V = append(f.TNS, b.Start), append(f.V, b.Mean())
			cols.Min, cols.Max = append(cols.Min, b.Min), append(cols.Max, b.Max)
			cols.Last, cols.Count = append(cols.Last, b.Last), append(cols.Count, b.Count)
			fold(&red, b)
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
	if len(f.TNS) == 0 { // an empty window reads as one that was never sized
		f.TNS, f.V, f.Buckets = nil, nil, nil
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
}

// cut is s at length 0, or an exactly sized new column when n is past its
// capacity.
func cut[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// gapsIn is s's gap markers inside q's window, block data first. Only
// Frames serves them; a reduction reads none.
func (st *Store) gapsIn(s *series, q Query) (gaps []time.Duration) {
	i, j := s.gaps.window(q.From, q.To, gapT)
	if st.blocks != nil && s.gaps.sealedFrom(q.From, gapT) {
		st.noteRead(st.blocks.EachGap(s.key, q.From, q.To, func(t time.Duration) { gaps = append(gaps, t) }))
	}
	for ; i < j; i++ {
		gaps = append(gaps, s.gaps.at(i))
	}
	return gaps
}

// foldRaw is fold over a raw window's values, each a bucket of one.
func foldRaw(v []float64) (red Bucket) {
	if len(v) == 0 {
		return red
	}
	red = Bucket{Count: len(v), Min: v[0], Max: v[0], Sum: v[0], Last: v[len(v)-1]}
	for _, x := range v[1:] {
		if x < red.Min {
			red.Min = x
		}
		if x > red.Max {
			red.Max = x
		}
		red.Sum += x
	}
	return red
}

// fold adds b, a sample as a bucket of one or a bucket, to the window
// reduction red.
func fold(red *Bucket, b Bucket) {
	if red.Count == 0 {
		*red = b
		return
	}
	if b.Min < red.Min {
		red.Min = b.Min
	}
	if b.Max > red.Max {
		red.Max = b.Max
	}
	red.Sum += b.Sum
	red.Last = b.Last
	red.Count += b.Count
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
// CompareRank. One frame is lent to every series; only its reduction is read.
func (st *Store) TopK(k int, domain string, from, to time.Duration, res Resolution) (ranked []NodePower, total float64) {
	start := time.Now()
	q := Query{Domain: PowerDomain(domain), From: from, To: to, Resolution: res, Aggregate: AggMean}
	o := st.keyOrder(q)
	all := make([]NodePower, len(o.placed))
	var f Frame
	st.eachInOrder(o, func(at int, s *series) {
		if st.buildFrame(&f, s, q); f.ReducedOK {
			all[at] = NodePower{Node: s.key.Node, Watts: f.Reduced, Series: 1}
		}
	})
	st.observeQuery(q, len(all), time.Since(start))
	// all is in key order, so same-node entries are adjacent and fold in
	// place, deterministically; an empty window left its entry zero.
	ranked = all[:0]
	for _, np := range all {
		if n := len(ranked); n > 0 && ranked[n-1].Node == np.Node {
			ranked[n-1].Watts += np.Watts
			ranked[n-1].Series += np.Series
		} else if np.Series > 0 {
			ranked = append(ranked, np)
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
