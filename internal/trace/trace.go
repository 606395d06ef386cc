// Package trace represents collected environmental data: timestamped
// samples, named series (one per sensor/domain), section tags injected by
// MonEQ's tagging feature, and encoders for the CSV files MonEQ writes per
// node.
//
// A Set is the in-memory form of one MonEQ output file: several series that
// share a timeline, plus tag markers and free-form metadata. The experiment
// harness renders Sets into the paper's figures.
package trace

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Sample is a single reading: a value observed at a simulated time.
type Sample struct {
	T time.Duration // simulated time since epoch
	V float64
}

// Series is an ordered sequence of samples from one sensor or domain.
// Samples are kept in non-decreasing time order; Append enforces this.
type Series struct {
	Name    string // e.g. "Chip Core", "PKG", "board"
	Unit    string // e.g. "W", "degC", "V"
	Samples []Sample
	// Gaps are poll instants at which the collection mechanism failed to
	// produce a value for this series — explicit "no data" markers, so
	// consumers can distinguish a sensor that read zero from one that did
	// not answer. Kept in non-decreasing time order, independent of
	// Samples.
	Gaps []time.Duration
}

// NewSeries returns an empty series with the given name and unit.
func NewSeries(name, unit string) *Series {
	return &Series{Name: name, Unit: unit}
}

// Append adds a sample, keeping time order. Out-of-order appends are
// rejected so collection bugs surface immediately.
func (s *Series) Append(t time.Duration, v float64) error {
	if n := len(s.Samples); n > 0 && t < s.Samples[n-1].T {
		return fmt.Errorf("trace: out-of-order append to %q: %v < %v", s.Name, t, s.Samples[n-1].T)
	}
	s.Samples = append(s.Samples, Sample{T: t, V: v})
	return nil
}

// MustAppend is Append that panics on time-order violations; for use by
// collectors whose clock discipline guarantees order.
func (s *Series) MustAppend(t time.Duration, v float64) {
	if err := s.Append(t, v); err != nil {
		panic(err)
	}
}

// AppendGap marks a failed poll at time t, keeping gap time order.
func (s *Series) AppendGap(t time.Duration) error {
	if n := len(s.Gaps); n > 0 && t < s.Gaps[n-1] {
		return fmt.Errorf("trace: out-of-order gap on %q: %v < %v", s.Name, t, s.Gaps[n-1])
	}
	s.Gaps = append(s.Gaps, t)
	return nil
}

// MustAppendGap is AppendGap that panics on time-order violations.
func (s *Series) MustAppendGap(t time.Duration) {
	if err := s.AppendGap(t); err != nil {
		panic(err)
	}
}

// Len reports the number of samples.
func (s *Series) Len() int { return len(s.Samples) }

// Values returns the sample values as a fresh slice (for stats functions).
func (s *Series) Values() []float64 {
	vs := make([]float64, len(s.Samples))
	for i, smp := range s.Samples {
		vs[i] = smp.V
	}
	return vs
}

// Duration reports the time span covered by the series (last - first), or 0
// for fewer than two samples.
func (s *Series) Duration() time.Duration {
	if len(s.Samples) < 2 {
		return 0
	}
	return s.Samples[len(s.Samples)-1].T - s.Samples[0].T
}

// Clip returns a new series containing only samples with from <= T < to.
func (s *Series) Clip(from, to time.Duration) *Series {
	out := NewSeries(s.Name, s.Unit)
	for _, smp := range s.Samples {
		if smp.T >= from && smp.T < to {
			out.Samples = append(out.Samples, smp)
		}
	}
	return out
}

// At returns the value in effect at time t: the most recent sample at or
// before t. ok is false if t precedes the first sample or the series is
// empty.
func (s *Series) At(t time.Duration) (v float64, ok bool) {
	i := sort.Search(len(s.Samples), func(i int) bool { return s.Samples[i].T > t })
	if i == 0 {
		return 0, false
	}
	return s.Samples[i-1].V, true
}

// MeanValue returns the arithmetic mean of the sample values, or NaN when
// empty.
func (s *Series) MeanValue() float64 {
	if len(s.Samples) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, smp := range s.Samples {
		sum += smp.V
	}
	return sum / float64(len(s.Samples))
}

// Energy integrates the series as a power signal (watts) over time and
// returns joules, using step (zero-order-hold) integration between samples.
// Fewer than two samples integrate to zero.
func (s *Series) Energy() float64 {
	var joules float64
	for i := 1; i < len(s.Samples); i++ {
		dt := (s.Samples[i].T - s.Samples[i-1].T).Seconds()
		joules += s.Samples[i-1].V * dt
	}
	return joules
}

// Tag is a named section of the timeline, produced by MonEQ's tagging
// feature (start/end markers around application "work loops").
type Tag struct {
	Name  string
	Start time.Duration
	End   time.Duration // zero End with Open=true means not yet closed
	Open  bool
}

// Set is a collection of series sharing one timeline — the in-memory form
// of a MonEQ per-node output file.
type Set struct {
	Series []*Series
	Tags   []Tag
	Meta   map[string]string
}

// NewSet returns an empty Set with initialized metadata.
func NewSet() *Set {
	return &Set{Meta: make(map[string]string)}
}

// Add appends a series to the set and returns it for chaining.
func (set *Set) Add(s *Series) *Series {
	set.Series = append(set.Series, s)
	return s
}

// Lookup finds a series by name; nil if absent.
func (set *Set) Lookup(name string) *Series {
	for _, s := range set.Series {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// StartTag opens a named tag at time t. Nested and repeated tags are
// allowed; EndTag closes the most recent open tag with that name.
func (set *Set) StartTag(name string, t time.Duration) {
	set.Tags = append(set.Tags, Tag{Name: name, Start: t, Open: true})
}

// EndTag closes the most recently opened tag with the given name. It
// returns an error if no such open tag exists or the end precedes the start.
func (set *Set) EndTag(name string, t time.Duration) error {
	for i := len(set.Tags) - 1; i >= 0; i-- {
		tag := &set.Tags[i]
		if tag.Name == name && tag.Open {
			if t < tag.Start {
				return fmt.Errorf("trace: tag %q ends at %v before start %v", name, t, tag.Start)
			}
			tag.End = t
			tag.Open = false
			return nil
		}
	}
	return fmt.Errorf("trace: EndTag(%q): no open tag", name)
}

// TagWindow returns the closed tag with the given name (the first match in
// order of opening) and whether it exists.
func (set *Set) TagWindow(name string) (Tag, bool) {
	for _, tag := range set.Tags {
		if tag.Name == name && !tag.Open {
			return tag, true
		}
	}
	return Tag{}, false
}

// --- CSV encoding -----------------------------------------------------------

// csv layout:
//   #meta,key,value          (one per metadata entry, sorted by key)
//   #tag,name,start_ns,end_ns
//   #series,idx,name,unit    (one per series)
//   sample,idx,t_ns,value    (data rows)
//   gap,idx,t_ns             (failed-poll markers, after the data rows)

// WriteCSV encodes the set in a stable, diffable text form. Output is
// deterministic: metadata sorted by key, series and samples in insertion
// order.
func (set *Set) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	keys := make([]string, 0, len(set.Meta))
	for k := range set.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := cw.Write([]string{"#meta", k, set.Meta[k]}); err != nil {
			return err
		}
	}
	for _, tag := range set.Tags {
		end := strconv.FormatInt(int64(tag.End), 10)
		if tag.Open {
			end = "open"
		}
		if err := cw.Write([]string{"#tag", tag.Name, strconv.FormatInt(int64(tag.Start), 10), end}); err != nil {
			return err
		}
	}
	for i, s := range set.Series {
		if err := cw.Write([]string{"#series", strconv.Itoa(i), s.Name, s.Unit}); err != nil {
			return err
		}
	}
	for i, s := range set.Series {
		idx := strconv.Itoa(i)
		for _, smp := range s.Samples {
			rec := []string{"sample", idx,
				strconv.FormatInt(int64(smp.T), 10),
				strconv.FormatFloat(smp.V, 'g', 17, 64)}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	for i, s := range set.Series {
		idx := strconv.Itoa(i)
		for _, t := range s.Gaps {
			if err := cw.Write([]string{"gap", idx, strconv.FormatInt(int64(t), 10)}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV decodes a set written by WriteCSV.
func ReadCSV(r io.Reader) (*Set, error) {
	set := NewSet()
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	for {
		rec, err := cr.Read()
		if errors.Is(err, io.EOF) {
			return set, nil
		}
		if err != nil {
			return nil, err
		}
		switch rec[0] {
		case "#meta":
			if len(rec) != 3 {
				return nil, fmt.Errorf("trace: bad #meta row %q", rec)
			}
			set.Meta[rec[1]] = rec[2]
		case "#tag":
			if len(rec) != 4 {
				return nil, fmt.Errorf("trace: bad #tag row %q", rec)
			}
			start, err := strconv.ParseInt(rec[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: bad tag start %q: %w", rec[2], err)
			}
			tag := Tag{Name: rec[1], Start: time.Duration(start)}
			if rec[3] == "open" {
				tag.Open = true
			} else {
				end, err := strconv.ParseInt(rec[3], 10, 64)
				if err != nil {
					return nil, fmt.Errorf("trace: bad tag end %q: %w", rec[3], err)
				}
				tag.End = time.Duration(end)
			}
			set.Tags = append(set.Tags, tag)
		case "#series":
			if len(rec) != 4 {
				return nil, fmt.Errorf("trace: bad #series row %q", rec)
			}
			idx, err := strconv.Atoi(rec[1])
			if err != nil || idx != len(set.Series) {
				return nil, fmt.Errorf("trace: bad series index %q", rec[1])
			}
			set.Series = append(set.Series, NewSeries(rec[2], rec[3]))
		case "sample":
			if len(rec) != 4 {
				return nil, fmt.Errorf("trace: bad sample row %q", rec)
			}
			idx, err := strconv.Atoi(rec[1])
			if err != nil || idx < 0 || idx >= len(set.Series) {
				return nil, fmt.Errorf("trace: sample for unknown series %q", rec[1])
			}
			tns, err := strconv.ParseInt(rec[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: bad sample time %q: %w", rec[2], err)
			}
			v, err := strconv.ParseFloat(rec[3], 64)
			if err != nil {
				return nil, fmt.Errorf("trace: bad sample value %q: %w", rec[3], err)
			}
			if err := set.Series[idx].Append(time.Duration(tns), v); err != nil {
				return nil, err
			}
		case "gap":
			if len(rec) != 3 {
				return nil, fmt.Errorf("trace: bad gap row %q", rec)
			}
			idx, err := strconv.Atoi(rec[1])
			if err != nil || idx < 0 || idx >= len(set.Series) {
				return nil, fmt.Errorf("trace: gap for unknown series %q", rec[1])
			}
			tns, err := strconv.ParseInt(rec[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: bad gap time %q: %w", rec[2], err)
			}
			if err := set.Series[idx].AppendGap(time.Duration(tns)); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("trace: unknown row kind %q", rec[0])
		}
	}
}

// String renders a short human-readable summary, useful in test failures.
func (set *Set) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace.Set{%d series, %d tags", len(set.Series), len(set.Tags))
	for _, s := range set.Series {
		fmt.Fprintf(&b, "; %s[%d]", s.Name, s.Len())
	}
	b.WriteString("}")
	return b.String()
}
