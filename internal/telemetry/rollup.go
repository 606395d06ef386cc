package telemetry

import (
	"fmt"
	"time"

	"envmon/internal/telemetry/storage"
	"envmon/internal/trace"
)

// Resolution selects which ladder level a query reads: the raw ring or one
// of the rollup levels.
type Resolution uint8

const (
	// Raw serves the per-sample ring.
	Raw Resolution = iota
	// Res1s serves 1-second rollup buckets.
	Res1s
	// Res10s serves 10-second rollup buckets.
	Res10s
	// Res60s serves 60-second rollup buckets.
	Res60s
)

// rollupPeriods holds the ladder's bucket widths, index-aligned with the
// series' rollup rings (Resolution r > Raw maps to level r-1). The widths
// are owned by the storage layer so block files agree with the head.
var rollupPeriods = storage.RollupPeriods

const numRollupLevels = storage.NumRollupLevels

// Period reports the bucket width of the resolution (0 for Raw).
func (r Resolution) Period() time.Duration {
	if r == Raw {
		return 0
	}
	return rollupPeriods[r-1]
}

func (r Resolution) String() string {
	switch r {
	case Raw:
		return "raw"
	case Res1s:
		return "1s"
	case Res10s:
		return "10s"
	case Res60s:
		return "60s"
	default:
		return fmt.Sprintf("Resolution(%d)", uint8(r))
	}
}

// ParseResolution is the inverse of String, for query parameters. The
// empty string selects Raw.
func ParseResolution(s string) (Resolution, error) {
	switch s {
	case "", "raw":
		return Raw, nil
	case "1s":
		return Res1s, nil
	case "10s":
		return Res10s, nil
	case "60s":
		return Res60s, nil
	default:
		return Raw, fmt.Errorf("telemetry: unknown resolution %q (raw|1s|10s|60s)", s)
	}
}

// series is one stored time series: a stream of raw samples, one of gap
// markers and one of closed buckets per rollup level, all preallocated, and
// each level's open bucket in the record itself, so an ingest touches the
// record and the raw ring and no other ring until a bucket closes. Access is
// guarded by the owning shard's lock. Each stream carries its own position
// against the count seam (see stream); a level's open bucket is outside its
// stream and never sealed.
type series struct {
	// What a sample's ingest reads and writes comes first.
	key      SeriesKey
	unit     string
	next     *series // the next series under the same index hash (see shard)
	lastT    time.Duration
	walRef   uint64 // series ref in the shard's current WAL segment
	walEpoch uint64 // shard walEpoch the ref belongs to (0 = undeclared)
	raw      stream[Point]
	open     [numRollupLevels]Bucket // Count 0: the level has no bucket yet

	gaps     stream[time.Duration]
	roll     [numRollupLevels]stream[Bucket]
	minT     time.Duration // first sample ever (valid when raw.total > 0)
	lastGapT time.Duration
}

// newSeries allocates a series' rings. A level's RollupCapacity counts its
// open bucket, so its ring holds one closed bucket fewer.
func newSeries(key SeriesKey, unit string, opts Options) *series {
	s := &series{key: key, unit: unit,
		raw:  newStream[Point](opts.RawCapacity),
		gaps: newStream[time.Duration](opts.GapCapacity)}
	for i := range s.roll {
		s.roll[i] = newStream[Bucket](opts.RollupCapacity - 1)
	}
	return s
}

// append records one sample and updates every rollup level incrementally:
// either the open bucket absorbs the sample or it closes into the level's
// ring and a new one opens. The caller has already checked time order; t >=
// lastT holds. That is what lets the bucket test be a subtraction: the open
// bucket holds lastT and starts on a multiple of period, so Start <= t, and t
// falls in it exactly when t-Start < period. The division runs only when a
// bucket opens.
func (s *series) append(t time.Duration, v float64) {
	if s.raw.total == 0 {
		s.minT = t
	}
	s.raw.push(Point{T: t, V: v})
	s.lastT = t
	for i, period := range rollupPeriods {
		b := &s.open[i]
		if t-b.Start < period && b.Count > 0 {
			if v < b.Min {
				b.Min = v
			}
			if v > b.Max {
				b.Max = v
			}
			b.Sum += v
			b.Last = v
			b.Count++
			continue
		}
		if b.Count > 0 {
			s.roll[i].push(*b)
		}
		*b = Bucket{Start: t - t%period, Count: 1, Min: v, Max: v, Sum: v, Last: v}
	}
}

// appendGap records one failed-poll marker. The caller has checked order.
func (s *series) appendGap(t time.Duration) {
	s.gaps.push(t)
	s.lastGapT = t
}

// samplePressed reports whether absorbing a sample at t would evict
// unsealed data: from the raw ring, or from a rollup ring that is about to
// take the bucket the sample closes. t >= lastT, as for append.
func (s *series) samplePressed(t time.Duration) bool {
	if s.raw.pressed() {
		return true
	}
	for l, period := range rollupPeriods {
		if b := &s.open[l]; t-b.Start >= period && b.Count > 0 && s.roll[l].pressed() {
			return true
		}
	}
	return false
}

// stretch reports how many leading samples of run one journal record may
// carry. The first always counts: the caller has checked its order and made
// room for it, sealing if samplePressed said so. Each later one counts while
// it is in time order and, in a journaled store, absorbing it would evict
// nothing unsealed — judged as samplePressed would judge it once the samples
// before it were in the rings: room() pushes are left per ring, the raw ring
// spends one per sample and a rollup ring one per bucket closed. So a run
// seals at the sample index where sample-by-sample ingest would have. A
// memory-only store has nothing unsealed and only order ends its stretch.
func (s *series) stretch(run []trace.Sample, offset time.Duration, journaled bool) int {
	raw := s.raw.room()
	var room [numRollupLevels]int
	var start [numRollupLevels]time.Duration
	for l, period := range rollupPeriods {
		room[l], start[l] = s.roll[l].room(), s.open[l].Start
		if s.open[l].Count == 0 {
			room[l]++          // the first bucket opens without closing one
			start[l] = -period // and any t >= 0 opens it
		}
	}
	for n, sm := range run {
		if n > 0 && (sm.T < run[n-1].T || journaled && raw <= 0) {
			return n
		}
		t := sm.T + offset
		for l, period := range rollupPeriods {
			if t-start[l] < period {
				continue
			}
			if n > 0 && journaled && room[l] <= 0 {
				return n
			}
			room[l]--
			start[l] = t - t%period
		}
		raw--
	}
	return len(run)
}
