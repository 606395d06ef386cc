// Package federation is the scatter-gather tier over many envmond
// daemons: one query front-end that fans /query, /topk, and /healthz out
// to every member daemon, merges the partial results deterministically,
// and serves the same httpapi wire types upstream — so envtop -remote
// works unmodified against a 16-rack machine.
//
// The shape follows X-Road's environmental-monitoring architecture (a
// central monitoring service pulling distributed servers over a defined
// wire protocol) and the Kwapi aggregation layer of the OpenStack
// energy-monitoring framework: the federation tier owns no data, only the
// member list, the fan-out pool, and the merge rules.
//
// Like Kwapi's forwarder between drivers and plug-ins, it passes on what
// it does not change. A /query frame whose series one member holds — every
// frame, when nodes are partitioned across members — is checked token by
// token as a decoder would check it (httpapi.SplitQueryResult) and then
// written to the client as the bytes that member sent; only a series
// several members report is decoded, combined and encoded here.
//
// Failure is first-class degraded state, never a silent zero: a member
// that cannot answer (connection error, deadline, open breaker) becomes an
// explicit MissingMember entry in the response's degraded section — the
// member-level analogue of the store's gap markers. Each member is guarded
// by its own circuit breaker (an open breaker skips the member outright,
// so a dead rack costs nothing per query) and failed calls retry on the
// shared capped-backoff schedule while the query's deadline allows.
package federation

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"envmon/internal/obs"
	"envmon/internal/resilience"
	"envmon/internal/telemetry"
	"envmon/internal/telemetry/client"
	"envmon/internal/telemetry/httpapi"
)

// Member names one downstream envmond daemon.
type Member struct {
	Name string
	URL  string
}

// ParseMembers parses a -members flag value: comma-separated base URLs,
// each optionally prefixed "name=". Unnamed members are named m00, m01, …
// in flag order. An entry whose URL has no host is refused: it would be a
// member that can never answer.
func ParseMembers(spec string) ([]Member, error) {
	var out []Member
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		m := Member{URL: part}
		if i := strings.Index(part, "="); i >= 0 && !strings.Contains(part[:i], "/") {
			m.Name, m.URL = part[:i], part[i+1:]
		}
		if m.Name == "" {
			m.Name = fmt.Sprintf("m%02d", len(out))
		}
		if !strings.HasPrefix(m.URL, "http://") && !strings.HasPrefix(m.URL, "https://") {
			m.URL = "http://" + m.URL
		}
		if u, err := url.Parse(m.URL); err != nil || u.Host == "" {
			return nil, fmt.Errorf("federation: member %q has no host", part)
		}
		out = append(out, m)
	}
	if len(out) == 0 {
		return nil, errors.New("federation: no members in spec")
	}
	return out, nil
}

// Config parameterizes New. The zero value of every field but Members
// selects a default.
type Config struct {
	// Members are the downstream daemons. At least one; names must be
	// unique.
	Members []Member
	// MemberDeadline bounds each individual member call (default 2 s). A
	// query-level deadline shorter than this wins via context.
	MemberDeadline time.Duration
	// Retries is how many extra attempts a failed member call gets within
	// the query's deadline (default 1; negative means none). Attempts are
	// spaced by the shared capped-backoff schedule.
	Retries int
	// BreakerThreshold consecutive failures open a member's breaker
	// (default 3); BreakerCooldown later a probe is let through (default
	// 10 s, wall clock).
	BreakerThreshold int
	BreakerCooldown  time.Duration
}

func (c Config) withDefaults() Config {
	if c.MemberDeadline <= 0 {
		c.MemberDeadline = 2 * time.Second
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 1
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 10 * time.Second
	}
	return c
}

// member is one downstream daemon with its client and guard state.
type member struct {
	name   string
	url    string
	client *client.Client

	mu      sync.Mutex // guards breaker and lastErr (Breaker is not concurrency-safe)
	breaker *resilience.Breaker
	lastErr string

	// this member's metric handles, nil until Instrument
	latency                *obs.Histogram
	errs, skips, reencoded *obs.Counter
}

// Federator fans queries out to its members and merges the answers. Safe
// for concurrent use.
type Federator struct {
	cfg     Config
	members []*member
	start   time.Time // epoch of the breakers' wall clock
	obs     fedObs    // document-level handles, nil until Instrument
}

// New builds a federator. Member names must be unique.
func New(cfg Config) (*Federator, error) {
	if len(cfg.Members) == 0 {
		return nil, errors.New("federation: at least one member required")
	}
	cfg = cfg.withDefaults()
	f := &Federator{cfg: cfg, start: time.Now()}
	seen := make(map[string]bool, len(cfg.Members))
	for _, m := range cfg.Members {
		if m.Name == "" || m.URL == "" {
			return nil, fmt.Errorf("federation: member needs name and URL, got %+v", m)
		}
		if seen[m.Name] {
			return nil, fmt.Errorf("federation: duplicate member name %q", m.Name)
		}
		seen[m.Name] = true
		// The transport timeout backstops the per-call context deadline:
		// a member that accepts the connection and never answers is cut
		// off even if the caller forgot a deadline.
		cl := client.New(m.URL).WithTimeout(cfg.MemberDeadline + time.Second)
		f.members = append(f.members, &member{
			name:    m.Name,
			url:     m.URL,
			client:  cl,
			breaker: resilience.NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, 1),
		})
	}
	return f, nil
}

// clock is the breakers' time base: wall time since the federator started.
func (f *Federator) clock() time.Duration { return time.Since(f.start) }

// MemberNames lists the members in configuration order.
func (f *Federator) MemberNames() []string {
	out := make([]string, len(f.members))
	for i, m := range f.members {
		out[i] = m.name
	}
	return out
}

// Members snapshots every member's breaker position for /members.
func (f *Federator) Members() []httpapi.MemberInfo {
	now := f.clock()
	out := make([]httpapi.MemberInfo, 0, len(f.members))
	for _, m := range f.members {
		m.mu.Lock()
		info := httpapi.MemberInfo{
			Name:      m.name,
			URL:       m.url,
			State:     m.breaker.State(now).String(),
			Trips:     m.breaker.Trips(),
			LastError: m.lastErr,
		}
		m.mu.Unlock()
		out = append(out, info)
	}
	return out
}

// errBreakerOpen marks a member skipped without a call.
var errBreakerOpen = errors.New("breaker open")

// outcome is one member's result of a fan-out.
type outcome[T any] struct {
	m    *member
	doc  T
	err  error
	open bool // skipped outright: breaker open
}

// missing renders the outcome's failure as the wire-level MissingMember.
func (o *outcome[T]) missing(now time.Duration) httpapi.MissingMember {
	mm := httpapi.MissingMember{Member: o.m.name, URL: o.m.url}
	if o.open {
		mm.Reason = "breaker open"
	} else {
		mm.Reason = o.err.Error()
	}
	o.m.mu.Lock()
	mm.State = o.m.breaker.State(now).String()
	o.m.mu.Unlock()
	return mm
}

// fanout runs fn against every member, at most 8 calls at a time, and
// returns the outcomes in member order. Free function because Go methods
// cannot take type parameters.
func fanout[T any](ctx context.Context, f *Federator, fn func(context.Context, *client.Client) (T, error)) []outcome[T] {
	out := make([]outcome[T], len(f.members))
	sem := make(chan struct{}, min(8, len(f.members)))
	var wg sync.WaitGroup
	for i, m := range f.members {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out[i] = callMember(ctx, f, m, fn)
		}(i, m)
	}
	wg.Wait()
	return out
}

// callMember runs one member's call: breaker gate, per-call deadline,
// retries on the capped-backoff schedule while the query's context
// allows. Every attempt is recorded in the member's breaker and, when
// instrumented, in the per-member latency histogram — except one that
// ended because the query's own caller went away.
func callMember[T any](ctx context.Context, f *Federator, m *member, fn func(context.Context, *client.Client) (T, error)) outcome[T] {
	o := outcome[T]{m: m}
	m.mu.Lock()
	allowed := m.breaker.Allow(f.clock())
	m.mu.Unlock()
	if !allowed {
		o.err = errBreakerOpen
		o.open = true
		m.skips.Inc()
		return o
	}
	var bo resilience.Backoff
	for attempt := 0; ; attempt++ {
		cctx, cancel := context.WithTimeout(ctx, f.cfg.MemberDeadline)
		start := time.Now()
		doc, err := fn(cctx, m.client)
		elapsed := time.Since(start)
		cancel()
		if err != nil && errors.Is(ctx.Err(), context.Canceled) {
			// The query was cancelled, not timed out: its caller hung up
			// (envtop closed, a controller gave up) and took this call with
			// it. That says nothing about the member, so it is recorded
			// nowhere — three of these must not open a healthy member's
			// breaker. Half-open allows every call, not one probe, so a
			// probe dropped here cannot wedge the breaker either.
			o.err = err
			return o
		}
		m.latency.ObserveDuration(elapsed)
		if err != nil {
			m.errs.Inc()
		}
		m.mu.Lock()
		m.breaker.Record(f.clock(), err == nil)
		if err != nil {
			m.lastErr = err.Error()
		} else {
			m.lastErr = ""
		}
		retryable := err != nil && m.breaker.Allow(f.clock())
		m.mu.Unlock()
		if err == nil {
			o.doc, o.err = doc, nil
			return o
		}
		o.err = err
		if attempt >= f.cfg.Retries || !retryable || ctx.Err() != nil {
			return o
		}
		select {
		case <-ctx.Done():
			return o
		case <-time.After(bo.Next()):
		}
	}
}

// degraded folds the failed outcomes into the wire-level Degraded section;
// nil when every member answered. sorted by member name so partial
// responses are byte-stable.
func degraded[T any](f *Federator, outs []outcome[T]) *httpapi.Degraded {
	now := f.clock()
	var missing []httpapi.MissingMember
	for i := range outs {
		if outs[i].err != nil {
			missing = append(missing, outs[i].missing(now))
		}
	}
	if len(missing) == 0 {
		return nil
	}
	sort.Slice(missing, func(i, j int) bool { return missing[i].Member < missing[j].Member })
	f.obs.partial.Inc()
	return &httpapi.Degraded{
		Members:   len(outs),
		Responded: len(outs) - len(missing),
		Missing:   missing,
	}
}

// memberDoc is one member's /query answer as the fan-out returns it.
type memberDoc struct {
	httpapi.WireResult
	reencoded bool // the body was not in the codec's own spelling
}

// Query fans r out and merges the members' frames, which arrive checked
// but not decoded and leave as the bytes they came in wherever one member
// holds the key (mergeWire). Members are sent r without its deadline: ctx
// carries that. A member's 404 on a filtered query means "no matching
// series on that rack" and counts as an empty answer, not a failure. The
// document's frames alias the members' response bodies.
func (f *Federator) Query(ctx context.Context, r httpapi.Request) httpapi.WireResult {
	r.Deadline = 0
	outs := fanout(ctx, f, func(ctx context.Context, cl *client.Client) (memberDoc, error) {
		doc, reencoded, err := cl.QueryWire(ctx, r)
		var se *client.StatusError
		if errors.As(err, &se) && se.Code == 404 {
			return memberDoc{}, nil
		}
		return memberDoc{doc, reencoded}, err
	})
	lists := make([]memberFrames[httpapi.WireFrame], 0, len(outs))
	res := httpapi.WireResult{Degraded: degraded(f, outs)}
	var clocks simClocks
	for i := range outs {
		if outs[i].err != nil {
			continue
		}
		doc := &outs[i].doc
		lists = append(lists, memberFrames[httpapi.WireFrame]{member: outs[i].m.name, frames: doc.Frames})
		clocks.add(doc.SimNowNS)
		// Each member's newest_ns is httpapi.NewestNS of its own frames, and
		// a combine keeps every sample, so the newest of theirs is what
		// NewestNS would find in the merged frames.
		res.NewestNS = max(res.NewestNS, doc.NewestNS)
		if doc.reencoded {
			outs[i].m.reencoded.Inc()
		}
	}
	var combined int
	res.Frames, combined, res.Err = mergeWire(lists, r.Aggregate)
	res.SimNowNS = clocks.min
	f.obs.forwarded.Add(uint64(len(res.Frames) - combined))
	f.obs.combined.Add(uint64(combined))
	return res
}

// TopK fans r out and merges the global ranking. r.K bounds the merged
// ranking only (0 ranks every node): members are sent k=0 and always rank
// every node, because the global total must cover nodes outside each
// member's local top k, and summing it in canonical node order is what
// makes the result byte-identical under re-partitioning. As for Query,
// ctx carries the deadline.
func (f *Federator) TopK(ctx context.Context, r httpapi.Request) httpapi.TopKResult {
	k := r.K
	r.K, r.Deadline = 0, 0
	outs := fanout(ctx, f, func(ctx context.Context, cl *client.Client) (httpapi.TopKResult, error) {
		return cl.Rank(ctx, r)
	})
	parts := make([]MemberTopK, 0, len(outs))
	var clocks simClocks
	for i := range outs {
		if outs[i].err == nil {
			parts = append(parts, MemberTopK{Member: outs[i].m.name, Doc: outs[i].doc})
			clocks.add(outs[i].doc.SimNowNS)
		}
	}
	res := MergeTopK(parts, k, telemetry.PowerDomain(r.Domain))
	res.SimNowNS = clocks.min
	res.Degraded = degraded(f, outs)
	return res
}

// Health fans /healthz out and merges the counters. Unreachable members
// degrade the federated status and appear in the Federation section.
func (f *Federator) Health(ctx context.Context) httpapi.Health {
	outs := fanout(ctx, f, func(ctx context.Context, cl *client.Client) (httpapi.Health, error) {
		return cl.Health(ctx)
	})
	parts := make([]httpapi.Health, 0, len(outs))
	for i := range outs {
		if outs[i].err == nil {
			parts = append(parts, outs[i].doc)
		}
	}
	h := mergeHealth(parts, len(outs))
	if d := degraded(f, outs); d != nil {
		h.Status = "degraded"
		h.Federation.Missing = d.Missing
	}
	return h
}
