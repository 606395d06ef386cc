package obs

import (
	"bufio"
	"io"
	"net/http"
	"sort"
	"strconv"
)

// This file renders the registry in the Prometheus text exposition format
// (0.0.4). Output is deterministic: families sort by name, children by
// their canonical label string, histogram buckets by bound — so smoke
// tests can grep for exact lines and diffs between scrapes are
// meaningful.

// WriteText renders every family to w in the text exposition format.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)

	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	// Children maps only grow and handles are stable, so rendering after
	// releasing the registry lock reads a consistent-enough snapshot; the
	// per-child values are atomics read at render time regardless.
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	for _, f := range fams {
		if f.help != "" {
			bw.WriteString("# HELP ")
			bw.WriteString(f.name)
			bw.WriteByte(' ')
			bw.WriteString(f.help)
			bw.WriteByte('\n')
		}
		bw.WriteString("# TYPE ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(f.typ.String())
		bw.WriteByte('\n')

		r.mu.Lock()
		children := make([]*child, 0, len(f.children))
		for _, ch := range f.children {
			children = append(children, ch)
		}
		r.mu.Unlock()
		sort.Slice(children, func(i, j int) bool { return children[i].labels < children[j].labels })

		for _, ch := range children {
			ch.v.write(bw, f.name, ch.labels)
		}
	}
	return bw.Flush()
}

func writeSample(bw *bufio.Writer, name, labels, value string) {
	bw.WriteString(name)
	bw.WriteString(labels)
	bw.WriteByte(' ')
	bw.WriteString(value)
	bw.WriteByte('\n')
}

func (c *Counter) write(bw *bufio.Writer, name, labels string) {
	writeSample(bw, name, labels, formatUint(c.Value()))
}

func (c *FloatCounter) write(bw *bufio.Writer, name, labels string) {
	writeSample(bw, name, labels, formatFloat(c.Value()))
}

func (fn funcValue) write(bw *bufio.Writer, name, labels string) {
	writeSample(bw, name, labels, formatFloat(fn()))
}

// write emits the cumulative _bucket series plus _sum and _count. Counts
// are read once per bucket; a concurrent Observe between bucket reads can
// make _count lag the +Inf bucket by a few observations, which the format
// tolerates (scrapes are snapshots, not transactions).
func (h *Histogram) write(bw *bufio.Writer, name, labels string) {
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Value()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		writeSample(bw, name+"_bucket", mergeLabels(labels, `le="`+le+`"`), formatUint(cum))
	}
	writeSample(bw, name+"_sum", labels, formatFloat(h.Sum()))
	writeSample(bw, name+"_count", labels, formatUint(h.count.Value()))
}

// mergeLabels prepends one rendered pair to a canonical label string
// (histogram buckets lead with le, matching common exposition style).
func mergeLabels(labels, pair string) string {
	if labels == "" {
		return "{" + pair + "}"
	}
	return "{" + pair + "," + labels[1:]
}

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Handler returns an http.Handler serving the rendered registry — the
// /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}
