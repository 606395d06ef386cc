package client

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Metrics support: fetching and parsing the daemon's Prometheus-text
// /metrics exposition, plus the condensed ObsStatus summary envtop's
// header line is built from. The parser handles exactly what
// internal/obs emits — `name{labels} value` with sorted, escaped labels —
// and skips comment lines; it is not a general openmetrics parser.

// MetricsSnapshot is one scrape, parsed: sample name+labels → value.
type MetricsSnapshot struct {
	samples map[string]float64
}

// Value returns the sample with the exact rendered label set (e.g.
// `envmon_http_requests_total{endpoint="query"}` — labels in sorted key
// order, or the bare name for an unlabeled metric).
func (m *MetricsSnapshot) Value(sample string) (float64, bool) {
	v, ok := m.samples[sample]
	return v, ok
}

// Sum returns the sum of every sample of the named family (any labels),
// and how many samples matched.
func (m *MetricsSnapshot) Sum(family string) (float64, int) {
	var sum float64
	n := 0
	for k, v := range m.samples {
		if name := k; name == family ||
			(strings.HasPrefix(name, family) && len(name) > len(family) && name[len(family)] == '{') {
			sum += v
			n++
		}
	}
	return sum, n
}

// Quantile estimates the q-quantile of a histogram family from its
// cumulative _bucket samples matched by the given rendered label pair
// (e.g. `stage="query"`): the upper bound of the first bucket whose
// cumulative count reaches q × total, with the +Inf bucket collapsing to
// the largest finite bound — an upper bound, which is the conservative
// direction for an alerting surface. Returns false when the histogram is
// absent or empty.
func (m *MetricsSnapshot) Quantile(family, labelPair string, q float64) (float64, bool) {
	type bkt struct {
		le  float64
		cum float64
	}
	var buckets []bkt
	prefix := family + "_bucket{"
	for k, v := range m.samples {
		if !strings.HasPrefix(k, prefix) || !strings.Contains(k, labelPair) {
			continue
		}
		le, ok := parseLE(k)
		if !ok {
			continue
		}
		buckets = append(buckets, bkt{le, v})
	}
	if len(buckets) == 0 {
		return 0, false
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	total := buckets[len(buckets)-1].cum
	if total == 0 {
		return 0, false
	}
	rank := q * total
	if rank < 1 {
		rank = 1
	}
	for i, b := range buckets {
		if b.cum >= rank {
			if b.le == maxFloat { // +Inf bucket: report largest finite bound
				if i > 0 {
					return buckets[i-1].le, true
				}
				return 0, false
			}
			return b.le, true
		}
	}
	return 0, false
}

const maxFloat = 1.797693134862315708145274237317043567981e+308

// parseLE extracts the le label from a rendered _bucket sample key.
func parseLE(key string) (float64, bool) {
	i := strings.Index(key, `le="`)
	if i < 0 {
		return 0, false
	}
	rest := key[i+4:]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return 0, false
	}
	if rest[:j] == "+Inf" {
		return maxFloat, true
	}
	v, err := strconv.ParseFloat(rest[:j], 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// Metrics fetches and parses /metrics. Daemons predating the
// observability layer return 404; callers that merely decorate output
// (envtop) should treat errors as "no metrics" rather than fatal.
func (c *Client) Metrics(ctx context.Context) (*MetricsSnapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, fmt.Errorf("client: building request: %w", err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("client: /metrics: HTTP %d", resp.StatusCode)
	}
	return ParseMetrics(io.LimitReader(resp.Body, 16<<20))
}

// ParseMetrics parses a Prometheus text exposition into a snapshot.
func ParseMetrics(r io.Reader) (*MetricsSnapshot, error) {
	snap := &MetricsSnapshot{samples: make(map[string]float64)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// `name{labels} value` — the value follows the last space; labels
		// cannot contain an unescaped space outside quotes, but rather than
		// tokenize we split at the final space, which the exposition
		// guarantees separates sample from value.
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue // timestamped or exotic lines: skip, don't fail
		}
		snap.samples[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("client: scanning /metrics: %w", err)
	}
	return snap, nil
}

// ObsStatus is the condensed self-observability summary a dashboard
// header shows: how fast the daemon ingests, how slow its queries are,
// and whether any breakers are open.
type ObsStatus struct {
	// Samples is the total ingested; Rate is samples per second of daemon
	// uptime (0 when uptime is unknown).
	Samples float64
	Rate    float64
	// QueryP99 is the estimated 99th-percentile query latency; zero when
	// no queries have run.
	QueryP99 time.Duration
	// BreakersOpen / BreakersHalfOpen / BreakersClosed count sources by
	// breaker state across every chain.
	BreakersOpen     int
	BreakersHalfOpen int
	BreakersClosed   int
	// SlowOps is the total count of operations past the slow threshold.
	SlowOps float64
}

// String renders the one-line header, e.g.
//
//	ingest 12.3k samples (4.1k/s) | query p99 5ms | breakers 8 closed, 1 open | slow ops 3
func (s ObsStatus) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ingest %s samples", humanCount(s.Samples))
	if s.Rate > 0 {
		fmt.Fprintf(&b, " (%s/s)", humanCount(s.Rate))
	}
	if s.QueryP99 > 0 {
		fmt.Fprintf(&b, " | query p99 %s", s.QueryP99)
	}
	if s.BreakersClosed+s.BreakersHalfOpen+s.BreakersOpen > 0 {
		fmt.Fprintf(&b, " | breakers %d closed", s.BreakersClosed)
		if s.BreakersHalfOpen > 0 {
			fmt.Fprintf(&b, ", %d half-open", s.BreakersHalfOpen)
		}
		if s.BreakersOpen > 0 {
			fmt.Fprintf(&b, ", %d OPEN", s.BreakersOpen)
		}
	}
	if s.SlowOps > 0 {
		fmt.Fprintf(&b, " | slow ops %.0f", s.SlowOps)
	}
	return b.String()
}

func humanCount(v float64) string {
	switch {
	case v >= 1e9:
		return strconv.FormatFloat(v/1e9, 'f', 1, 64) + "G"
	case v >= 1e6:
		return strconv.FormatFloat(v/1e6, 'f', 1, 64) + "M"
	case v >= 1e3:
		return strconv.FormatFloat(v/1e3, 'f', 1, 64) + "k"
	default:
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
}

// SummarizeObs condenses a snapshot into the header fields. Works with
// whatever families are present; absent families leave zero fields.
func SummarizeObs(m *MetricsSnapshot) ObsStatus {
	var s ObsStatus
	s.Samples, _ = m.Value("envmon_ingest_samples_total")
	if up, ok := m.Value("envmon_uptime_seconds"); ok && up > 0 {
		s.Rate = s.Samples / up
	}
	if p99, ok := m.Quantile("envmon_pipeline_seconds", `stage="query"`, 0.99); ok {
		s.QueryP99 = time.Duration(p99 * float64(time.Second))
	}
	if v, ok := m.Value(`envmon_breaker_sources{state="open"}`); ok {
		s.BreakersOpen = int(v)
	}
	if v, ok := m.Value(`envmon_breaker_sources{state="half-open"}`); ok {
		s.BreakersHalfOpen = int(v)
	}
	if v, ok := m.Value(`envmon_breaker_sources{state="closed"}`); ok {
		s.BreakersClosed = int(v)
	}
	s.SlowOps, _ = m.Sum("envmon_slow_ops_total")
	return s
}
