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
// markers and one of buckets per rollup level, all preallocated. Access is
// guarded by the owning shard's lock. Each stream carries its own position
// against the count seam (see stream); a rollup level's open tail bucket is
// still mutable and never sealed, so that level's seam sits at total-1.
type series struct {
	key      SeriesKey
	unit     string
	raw      stream[Point]
	gaps     stream[time.Duration]
	roll     [numRollupLevels]stream[Bucket]
	minT     time.Duration // first sample ever (valid when raw.total > 0)
	lastT    time.Duration
	lastGapT time.Duration

	walRef   uint64 // series ref in the shard's current WAL segment
	walEpoch uint64 // shard walEpoch the ref belongs to (0 = undeclared)
}

func newSeries(key SeriesKey, unit string, opts Options) *series {
	s := &series{key: key, unit: unit,
		raw:  newStream[Point](opts.RawCapacity),
		gaps: newStream[time.Duration](opts.GapCapacity)}
	for i := range s.roll {
		s.roll[i] = newStream[Bucket](opts.RollupCapacity)
	}
	return s
}

// append records one sample and updates every rollup level incrementally:
// either the open tail bucket absorbs the sample or a new bucket is pushed.
// The caller has already checked time order; t >= lastT holds. That is what
// lets the bucket test be a subtraction: the tail bucket holds lastT and
// starts on a multiple of period, so Start <= t, and t falls in it exactly
// when t-Start < period. The division runs only when a bucket opens.
func (s *series) append(t time.Duration, v float64) {
	if s.raw.total == 0 {
		s.minT = t
	}
	s.raw.push(Point{T: t, V: v})
	s.lastT = t
	for i, period := range rollupPeriods {
		rb := &s.roll[i]
		if b := rb.tail(); b != nil && t-b.Start < period {
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
		rb.push(Bucket{Start: t - t%period, Count: 1, Min: v, Max: v, Sum: v, Last: v})
	}
}

// appendGap records one failed-poll marker. The caller has checked order.
func (s *series) appendGap(t time.Duration) {
	s.gaps.push(t)
	s.lastGapT = t
}

// samplePressed reports whether absorbing a sample at t would evict
// unsealed data: from the raw ring, or from a rollup ring that is about to
// open a new bucket rather than absorb the sample into its tail. t >= lastT,
// as for append.
func (s *series) samplePressed(t time.Duration) bool {
	if s.raw.pressed() {
		return true
	}
	for l, period := range rollupPeriods {
		if rb := &s.roll[l]; rb.pressed() && t-rb.tail().Start >= period {
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
// spends one per sample and a rollup ring one per bucket opened. So a run
// seals at the sample index where sample-by-sample ingest would have. A
// memory-only store has nothing unsealed and only order ends its stretch.
func (s *series) stretch(run []trace.Sample, offset time.Duration, journaled bool) int {
	raw := s.raw.room()
	var room [numRollupLevels]int
	var start [numRollupLevels]time.Duration
	for l, period := range rollupPeriods {
		room[l], start[l] = s.roll[l].room(), -period // no tail yet: any t >= 0 opens a bucket
		if b := s.roll[l].tail(); b != nil {
			start[l] = b.Start
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
