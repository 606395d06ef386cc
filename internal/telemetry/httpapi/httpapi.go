// Package httpapi serves a telemetry.Store over HTTP/JSON — the wire layer
// of the envmond daemon. It also defines the JSON document types, which
// the client package shares, so the two sides cannot drift. What the store
// and the resilience chains already hand out element by element — ranking
// entries, breaker positions — is aliased here, not mirrored: the
// one definition carries the JSON tags and the handlers pass its slices on.
// The /query document has its own codec (codec.go), and a second form for
// a server that passes frames on rather than producing them: WireResult,
// the same document with each frame checked but left as the bytes it
// arrived in, served by the same rules.
//
// Endpoints (all GET):
//
//	/healthz  liveness + store counters + the simulation's current time
//	/series   every stored series with unit and sample counts
//	/query    frames for matching series over a window
//	/topk     nodes ranked by mean power over a window
//
// Durations in query parameters use Go syntax ("90s", "5m"); timestamps in
// responses are nanoseconds since the simulation epoch, matching the trace
// CSV encoding.
package httpapi

import (
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"envmon/internal/daemon"
	"envmon/internal/resilience"
	"envmon/internal/telemetry"
)

// SourceHealth is one member of a collection chain: the access method and
// its circuit breaker's position (closed | open | half-open).
type SourceHealth = resilience.SourceStatus

// BackendHealth is one resilient collection chain's state on one node.
type BackendHealth struct {
	Node    string         `json:"node,omitempty"`
	Method  string         `json:"method"` // the chain's primary method
	Sources []SourceHealth `json:"sources"`
}

// StorageHealth is the persistence section of /healthz, present when the
// daemon runs with a data directory: the block and journal tiers' sizes
// plus what the last restart recovered.
type StorageHealth struct {
	DataDir          string `json:"data_dir"`
	Blocks           int    `json:"blocks"`
	BlockBytes       int64  `json:"block_bytes"`
	WALBytes         int64  `json:"wal_bytes"`
	WALMapped        bool   `json:"wal_mapped"` // false: the journal pays a write(2) per sample
	Compactions      uint64 `json:"compactions"`
	ReadErrors       uint64 `json:"read_errors,omitempty"`
	RecoveredSeries  int    `json:"recovered_series,omitempty"`
	RecoveredSamples uint64 `json:"recovered_samples,omitempty"`
	RecoveredGaps    uint64 `json:"recovered_gaps,omitempty"`
	LostRecords      uint64 `json:"lost_records,omitempty"`
}

// Health is the /healthz document. Status is "ok", or "degraded" when any
// reported breaker is open — the daemon is still serving, but some backend
// is down and its series are accumulating gaps instead of samples. A
// federation front-end (envfedd) serves the same document with the
// counters summed across members and the Federation section filled in.
type Health struct {
	Status     string            `json:"status"`
	Series     int               `json:"series"`
	Samples    uint64            `json:"samples"`
	Gaps       uint64            `json:"gaps"`
	SimNowNS   int64             `json:"sim_now_ns"`
	Faults     string            `json:"faults,omitempty"` // active fault plan, if injecting
	Storage    *StorageHealth    `json:"storage,omitempty"`
	Backends   []BackendHealth   `json:"backends,omitempty"`
	Federation *FederationHealth `json:"federation,omitempty"`
}

// FederationHealth is the federation section of a front-end's /healthz:
// how many downstream daemons it fans out to and which did not answer.
type FederationHealth struct {
	Members   int             `json:"members"`
	Healthy   int             `json:"healthy"`
	Degraded  int             `json:"degraded,omitempty"` // members answering but self-reporting degraded
	Missing   []MissingMember `json:"missing,omitempty"`
	SimSkewNS int64           `json:"sim_skew_ns,omitempty"` // max − min member sim-now
}

// MissingMember is one downstream daemon a federated response could not
// include: the member-level analogue of a gap marker. A response carrying
// MissingMember entries is explicitly partial — never a silent zero.
type MissingMember struct {
	Member string `json:"member"`
	URL    string `json:"url,omitempty"`
	Reason string `json:"reason"`          // last error, or "breaker open"
	State  string `json:"state,omitempty"` // breaker position
}

// Degraded is the partial-result section attached to /query and /topk
// documents when at least one member was unreachable. Responded counts the
// members whose data the document does include.
type Degraded struct {
	Members   int             `json:"members"`
	Responded int             `json:"responded"`
	Missing   []MissingMember `json:"missing"`
}

// MemberInfo is one entry of a federation front-end's /members document.
type MemberInfo struct {
	Name      string `json:"name"`
	URL       string `json:"url"`
	State     string `json:"state"` // breaker position: closed | open | half-open
	Trips     int    `json:"trips"`
	LastError string `json:"last_error,omitempty"`
}

// MembersResult is the /members document.
type MembersResult struct {
	Members []MemberInfo `json:"members"`
}

// SeriesInfo is one entry of the /series document. Persisted reports how
// many leading samples are sealed on disk (absent on a memory-only store);
// OldestNS is the oldest retrievable sample — with a data directory that
// is the series' first sample ever, since blocks retain evicted history.
type SeriesInfo struct {
	Node      string `json:"node"`
	Backend   string `json:"backend"`
	Domain    string `json:"domain"`
	Unit      string `json:"unit"`
	Samples   uint64 `json:"samples"`
	Gaps      uint64 `json:"gaps,omitempty"`
	Persisted uint64 `json:"persisted,omitempty"`
	OldestNS  int64  `json:"oldest_ns"`
	NewestNS  int64  `json:"newest_ns"`
}

// SeriesResult is the /series document.
type SeriesResult struct {
	Series []SeriesInfo `json:"series"`
}

// Buckets is a rollup frame's bucket columns.
type Buckets = telemetry.Buckets

// Frame is one series' result in the /query document, as the store's
// columns, a rollup frame's Buckets flattened in after v. GapsNS marks the
// failed-poll instants inside the window: explicit "no data here" markers.
// It differs from telemetry.Frame only in what is the wire's own shape: a
// flat key, the resolution by name, and an absent rather than invalid
// reduction. Points is not on the wire: client's QueryFull fills it.
type Frame struct {
	Node       string                 `json:"node"`
	Backend    string                 `json:"backend"`
	Domain     string                 `json:"domain"`
	Unit       string                 `json:"unit"`
	Resolution string                 `json:"resolution"`
	Reduced    *float64               `json:"reduced,omitempty"`
	TNS        []time.Duration        `json:"t_ns,omitempty"`
	V          []float64              `json:"v,omitempty"`
	*Buckets                          // nil on a raw frame
	Points     []telemetry.FramePoint `json:"-"`
	GapsNS     []time.Duration        `json:"gaps_ns,omitempty"`
}

// Key is the series the frame belongs to, as the store spells it — and
// orders it: storage.KeyLess.
func (f *Frame) Key() telemetry.SeriesKey {
	return telemetry.SeriesKey{Node: f.Node, Backend: f.Backend, Domain: f.Domain}
}

// QueryResult is the /query document. SimNowNS and NewestNS are the
// response's freshness metadata: the server's simulated now at answer
// time and the newest sample time across the returned frames (0 when no
// frame holds a sample) — together they let a caller distinguish "fresh
// zero" from "stale frame" without a second /healthz round trip. On a
// federated endpoint SimNowNS is the minimum across answering members
// (the conservative view: data can be no fresher than the laggiest
// member's clock) and Degraded is present when a member was unreachable.
//
// This document, with its Frame and Buckets, is written and read by the
// hand-written codec in codec.go rather than by reflection: a field added
// to any of the three is added there too (TestCodecCoversEveryField), and
// one added to the document itself to WireResult as well.
type QueryResult struct {
	Frames   []Frame   `json:"frames"`
	SimNowNS int64     `json:"sim_now_ns,omitempty"`
	NewestNS int64     `json:"newest_ns,omitempty"`
	Degraded *Degraded `json:"degraded,omitempty"`
}

// NodePower is one entry of the /topk ranking.
type NodePower = telemetry.NodePower

// TopKResult is the /topk document. SimNowNS is the server's simulated
// now at answer time (on a federated endpoint, the minimum across
// answering members); Degraded is present only on a federated endpoint
// that could not reach every member.
type TopKResult struct {
	Domain     string      `json:"domain"`
	TotalWatts float64     `json:"total_watts"`
	SimNowNS   int64       `json:"sim_now_ns,omitempty"`
	Nodes      []NodePower `json:"nodes"`
	Degraded   *Degraded   `json:"degraded,omitempty"`
}

// ErrorBody is the JSON body of every non-200 response.
type ErrorBody = daemon.ErrorBody

// maxTopK bounds the /topk k parameter: a ranking is for operators
// eyeballing the worst offenders, and a request for millions of rows is a
// typo or an abuse, not a question. (k=0, "rank everyone", stays valid —
// the result is bounded by the node count.)
const maxTopK = 10000

// Server serves a store. The embedded chassis handler makes it an
// http.Handler and carries Instrument (envmon_http_* request metrics plus
// the /metrics mount) and SetAccessLog.
type Server struct {
	*daemon.Handler
	store    *telemetry.Store
	now      func() time.Duration
	breakers func() []BackendHealth
	faults   string

	// closing turns data-plane requests into immediate 503s once the
	// daemon has begun shutting down, so a query racing Store.Close gets a
	// JSON error instead of a hung or half-served connection.
	closing atomic.Bool
}

// New returns a server over store. now, when non-nil, reports the
// simulation's current time for /healthz (e.g. a clock group's Now); nil
// reports zero.
func New(store *telemetry.Store, now func() time.Duration) *Server {
	s := &Server{Handler: daemon.NewHandler("envmon"), store: store, now: now}
	s.HandleFunc("/healthz", s.handleHealthz)
	s.HandleFunc("/series", s.dataPlane(s.handleSeries))
	s.HandleFunc("/query", s.dataPlane(s.handleQuery))
	s.HandleFunc("/topk", s.dataPlane(s.handleTopK))
	return s
}

// StartClosing flips the server into shutdown mode: every subsequent
// data-plane request (/series, /query, /topk) is answered immediately
// with a 503 JSON error. Call when shutdown begins, before the store
// closes — it makes the "query races SIGTERM" window an explicit error
// instead of a connection that hangs in http.Server.Shutdown's drain.
func (s *Server) StartClosing() { s.closing.Store(true) }

// dataPlane guards a handler that reads the store: during shutdown it
// answers 503 instead of running fn.
func (s *Server) dataPlane(fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.closing.Load() || s.store.Closed() {
			daemon.WriteJSON(w, http.StatusServiceUnavailable, ErrorBody{Error: "store is closing"})
			return
		}
		fn(w, r)
	}
}

// SetBreakers installs a provider of per-backend breaker state for
// /healthz. The provider is called per request and must be safe for
// concurrent use (resilience chains guard their status with a lock).
func (s *Server) SetBreakers(f func() []BackendHealth) { s.breakers = f }

// SetFaults records the active fault-injection plan for /healthz, so an
// operator can tell a chaos drill from a real outage.
func (s *Server) SetFaults(plan string) { s.faults = plan }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := Health{
		Status:   "ok",
		Series:   s.store.NumSeries(),
		Samples:  s.store.Samples(),
		Gaps:     s.store.Gaps(),
		SimNowNS: s.simNow(),
		Faults:   s.faults,
	}
	if stats := s.store.StorageStats(); stats.Persistent {
		h.Storage = &StorageHealth{
			DataDir:          stats.DataDir,
			Blocks:           stats.Blocks,
			BlockBytes:       stats.BlockBytes,
			WALBytes:         stats.WALBytes,
			WALMapped:        stats.WALMapped,
			Compactions:      stats.Compactions,
			ReadErrors:       stats.ReadErrors,
			RecoveredSeries:  stats.Recovery.Series,
			RecoveredSamples: stats.Recovery.Samples,
			RecoveredGaps:    stats.Recovery.Gaps,
			LostRecords:      stats.Recovery.Lost,
		}
	}
	if s.breakers != nil {
		h.Backends = s.breakers()
		// Chains register concurrently at startup, so the provider's order
		// is nondeterministic; sort so /healthz is byte-stable across
		// requests and restarts (scrapers and tests diff it).
		sort.Slice(h.Backends, func(i, j int) bool {
			if h.Backends[i].Node != h.Backends[j].Node {
				return h.Backends[i].Node < h.Backends[j].Node
			}
			return h.Backends[i].Method < h.Backends[j].Method
		})
		for _, b := range h.Backends {
			for _, src := range b.Sources {
				if src.State == "open" {
					h.Status = "degraded"
				}
			}
		}
	}
	daemon.WriteJSON(w, http.StatusOK, h)
}

func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	infos := s.store.Series()
	out := SeriesResult{Series: make([]SeriesInfo, 0, len(infos))}
	for _, si := range infos {
		out.Series = append(out.Series, SeriesInfo{
			Node: si.Key.Node, Backend: si.Key.Backend, Domain: si.Key.Domain,
			Unit: si.Unit, Samples: si.Samples, Gaps: si.Gaps, Persisted: si.Persisted,
			OldestNS: int64(si.Oldest), NewestNS: int64(si.Newest),
		})
	}
	daemon.WriteJSON(w, http.StatusOK, out)
}

// parseDuration reads one duration parameter (Go syntax; empty is zero).
func parseDuration(r *http.Request, name string) (time.Duration, error) {
	v := r.FormValue(name)
	if v == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q: %v", name, v, err)
	}
	return d, nil
}

// Request is one /query or /topk request, the one value that carries it
// from the URL to the store: what the store is asked (telemetry.Query), how
// many nodes /topk ranks, and how long the caller waits. ParseQuery and
// ParseTopK read it from a URL; AppendQuery and AppendTopK write the URL
// each of them reverses.
type Request struct {
	telemetry.Query
	K        int           // /topk only: the ranking's length, 0 for every node
	Deadline time.Duration // 0 for none
}

// parseWindowed reads what /query and /topk share: the domain filter, the
// from/to window (empty means unbounded), deadline_ms and res.
func parseWindowed(r *http.Request) (req Request, err error) {
	req.Domain = r.FormValue("domain")
	if req.From, err = parseDuration(r, "from"); err != nil {
		return req, err
	}
	if req.To, err = parseDuration(r, "to"); err != nil {
		return req, err
	}
	if req.Deadline, err = ParseDeadline(r); err != nil {
		return req, err
	}
	req.Resolution, err = telemetry.ParseResolution(r.FormValue("res"))
	return req, err
}

// ParseQuery reads the /query parameter grammar: the node/backend/domain
// filters, the window, res, agg, and the caller's deadline. Exported
// because the federation front-end validates the same grammar before
// fanning out, so a typo is one 400 there, not N member errors.
func ParseQuery(r *http.Request) (req Request, err error) {
	if req, err = parseWindowed(r); err != nil {
		return req, err
	}
	req.Node, req.Backend = r.FormValue("node"), r.FormValue("backend")
	req.Aggregate, err = telemetry.ParseAggregate(r.FormValue("agg"))
	return req, err
}

// ParseTopK reads the /topk parameter grammar: k (default 10, 0 ranks
// everyone, at most maxTopK), the domain, the window, res and the
// caller's deadline.
func ParseTopK(r *http.Request) (req Request, err error) {
	if req, err = parseWindowed(r); err != nil {
		return req, err
	}
	req.K = 10
	if v := r.FormValue("k"); v != "" {
		req.K, err = strconv.Atoi(v)
		switch {
		case err != nil:
			err = fmt.Errorf("bad k %q: %v", v, err)
		case req.K < 0:
			err = fmt.Errorf("bad k %d: must be non-negative", req.K)
		case req.K > maxTopK:
			err = fmt.Errorf("bad k %d: exceeds maximum %d", req.K, maxTopK)
		}
	}
	return req, err
}

// AppendQuery appends r's /query string (no "?") to dst in the canonical
// spelling ParseQuery reverses: keys in url.Values.Encode order, res
// always, agg unless none, every other empty or zero field left out, and
// a deadline rounded up to a whole millisecond.
func AppendQuery(dst []byte, r Request) []byte {
	v := windowed(r)
	if r.Aggregate != telemetry.AggNone {
		v.Set("agg", r.Aggregate.String())
	}
	if r.Node != "" {
		v.Set("node", r.Node)
	}
	if r.Backend != "" {
		v.Set("backend", r.Backend)
	}
	return append(dst, v.Encode()...)
}

// AppendTopK is AppendQuery for /topk, which ParseTopK reverses: k always,
// and no node, backend or agg, which /topk does not read.
func AppendTopK(dst []byte, r Request) []byte {
	v := windowed(r)
	v.Set("k", strconv.Itoa(r.K))
	return append(dst, v.Encode()...)
}

// windowed spells what parseWindowed reads.
func windowed(r Request) url.Values {
	v := url.Values{"res": {r.Resolution.String()}}
	if r.Domain != "" {
		v.Set("domain", r.Domain)
	}
	if r.From != 0 {
		v.Set("from", r.From.String())
	}
	if r.To != 0 {
		v.Set("to", r.To.String())
	}
	if r.Deadline > 0 {
		ms := r.Deadline / time.Millisecond
		if r.Deadline%time.Millisecond != 0 {
			ms++
		}
		v.Set("deadline_ms", strconv.FormatInt(int64(ms), 10))
	}
	return v
}

// MaxDeadline is the largest deadline a request may ask for: one hour.
// Anything larger is a mistake, and far enough past it the product of
// deadline_ms with time.Millisecond wraps negative, which every caller
// reads as "none".
const MaxDeadline = time.Hour

// ParseDeadline reads the optional deadline_ms parameter: how long the
// caller is willing to wait for the result, at most MaxDeadline. Zero
// means no deadline.
func ParseDeadline(r *http.Request) (time.Duration, error) {
	v := r.FormValue("deadline_ms")
	if v == "" {
		return 0, nil
	}
	ms, err := strconv.Atoi(v)
	if err != nil || ms <= 0 {
		return 0, fmt.Errorf("bad deadline_ms %q: must be a positive integer", v)
	}
	if max := int(MaxDeadline / time.Millisecond); ms > max {
		return 0, fmt.Errorf("bad deadline_ms %q: exceeds maximum %d", v, max)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// runGuarded computes a response under an optional deadline. With no
// deadline it runs inline. With one, the computation runs on its own
// goroutine and a deadline expiry answers 504 immediately — the caller
// gets a JSON error within its budget, never a connection held open by a
// slow store scan (the computation finishes and is discarded).
func runGuarded(w http.ResponseWriter, deadline time.Duration, compute func() (int, any)) {
	if deadline <= 0 {
		status, doc := compute()
		daemon.WriteJSON(w, status, doc)
		return
	}
	type resp struct {
		status int
		doc    any
	}
	ch := make(chan resp, 1)
	go func() {
		status, doc := compute()
		ch <- resp{status, doc}
	}()
	t := time.NewTimer(deadline)
	defer t.Stop()
	select {
	case rp := <-ch:
		daemon.WriteJSON(w, rp.status, rp.doc)
	case <-t.C:
		daemon.WriteJSON(w, http.StatusGatewayTimeout,
			ErrorBody{Error: fmt.Sprintf("deadline %v exceeded", deadline)})
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, err := ParseQuery(r)
	if err != nil {
		daemon.BadRequest(w, err)
		return
	}
	runGuarded(w, req.Deadline, func() (int, any) {
		frames := s.store.Frames(req.Query)
		out := QueryResult{Frames: make([]Frame, len(frames)), SimNowNS: s.simNow()}
		for i := range frames {
			out.Frames[i] = frameDoc(&frames[i])
		}
		out.NewestNS = NewestNS(out.Frames)
		return out.Answer(req.Query)
	})
}

// simNow is the clock reading every document carries; 0, which the
// documents omit, on a server without a simulation clock.
func (s *Server) simNow() int64 {
	if s.now == nil {
		return 0
	}
	return int64(s.now())
}

// Answer is how a /query result is served, on one daemon or federated. A
// query returns one frame per matching series regardless of window, so
// zero frames under a filter means the series key does not exist: a 404,
// distinguishable from an empty window (200, a frame with no samples). An
// unfiltered query over an empty store stays 200: "nothing stored yet" is
// a valid answer to "show me everything". So does a federated result with
// members missing: the honest answer there is a 200 partial result
// ("can't say; these racks are dark"), never a 404 that claims the series
// does not exist.
func (r QueryResult) Answer(q telemetry.Query) (status int, doc any) {
	return answer(len(r.Frames), r.Degraded, q, r)
}

// Answer is QueryResult.Answer for the document with its frames on the
// wire.
func (r WireResult) Answer(q telemetry.Query) (status int, doc any) {
	return answer(len(r.Frames), r.Degraded, q, r)
}

func answer(frames int, degraded *Degraded, q telemetry.Query, doc any) (int, any) {
	if frames == 0 && degraded == nil && (q.Node != "" || q.Backend != "" || q.Domain != "") {
		return http.StatusNotFound, ErrorBody{Error: "no matching series"}
	}
	return http.StatusOK, doc
}

// NewestNS is a /query document's newest_ns: the newest sample time or
// bucket start across frames, the last of each frame's t_ns column (each
// frame is in time order); 0 when no frame holds any.
func NewestNS(frames []Frame) (newest int64) {
	for i := range frames {
		if t := frames[i].TNS; len(t) > 0 {
			newest = max(newest, int64(t[len(t)-1]))
		}
	}
	return newest
}

// frameDoc puts one store frame in its wire form. The store's frames are
// deep copies (telemetry.Store.Frames), so the columns, the gap markers
// and the reduction are handed over as they are.
func frameDoc(f *telemetry.Frame) Frame {
	jf := Frame{
		Node: f.Key.Node, Backend: f.Key.Backend, Domain: f.Key.Domain,
		Unit: f.Unit, Resolution: f.Resolution.String(),
		TNS: f.TNS, V: f.V, Buckets: f.Buckets, GapsNS: f.Gaps,
	}
	if f.ReducedOK {
		jf.Reduced = &f.Reduced
	}
	return jf
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	req, err := ParseTopK(r)
	if err != nil {
		daemon.BadRequest(w, err)
		return
	}
	runGuarded(w, req.Deadline, func() (int, any) {
		ranked, total := s.store.TopK(req.K, req.Domain, req.From, req.To, req.Resolution)
		if ranked == nil {
			ranked = []NodePower{} // an empty ranking is [] on the wire, not null
		}
		return http.StatusOK, TopKResult{
			Domain: telemetry.PowerDomain(req.Domain), TotalWatts: total, SimNowNS: s.simNow(), Nodes: ranked,
		}
	})
}
