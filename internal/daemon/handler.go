// Package daemon is the serving chassis envmond, envfedd and envcapd mount
// on: the rules for how a daemon serves HTTP, written once.
//
// Handler owns the request path — GET-only guard, JSON error envelope,
// status and byte capture, per-endpoint request metrics, the access-log
// callback and the /metrics mount. Server owns the lifecycle — bind the
// API listener and the optional operator-only debug listener, serve, run
// the caller's closing hook, drain within a fixed bound. Main owns the
// signal wiring. A daemon supplies its endpoint handlers and its metric
// prefix; everything else it gets from here.
package daemon

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"

	"envmon/internal/obs"
)

// ErrorBody is the JSON body of every non-200 response.
type ErrorBody struct {
	Error string `json:"error"`
}

// WriteJSON answers with doc as the JSON body under the given status.
//
// Every document is encoded into a pooled buffer before anything is sent
// — by its own encoder if it has one (an AppendJSON method: the /query
// document, whose replies are the large ones), else by encoding/json — so
// the body leaves in one Write, and a document that cannot be encoded (a
// NaN or ±Inf anywhere in it) is a 500 with the error envelope rather
// than a 200 cut short. The length is known by then and is deliberately
// not announced: without Content-Length net/http ends the body only after
// ServeHTTP has returned, so whoever has read an answer to its end finds
// the request already in /metrics and the access log.
func WriteJSON(w http.ResponseWriter, status int, doc any) {
	bp := encodeBufs.Get().(*[]byte)
	body, err := appendJSON((*bp)[:0], doc)
	if err != nil {
		encodeBufs.Put(bp)
		WriteJSON(w, http.StatusInternalServerError, ErrorBody{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body) // a failed write is the peer hanging up
	if cap(body) <= maxPooledEncodeBuf {
		*bp = body
		encodeBufs.Put(bp)
	}
}

// jsonAppender is a document with a hand-written encoder: AppendJSON
// appends the body json.NewEncoder(w).Encode(doc) would write.
type jsonAppender interface {
	AppendJSON(dst []byte) ([]byte, error)
}

func appendJSON(dst []byte, doc any) ([]byte, error) {
	if a, ok := doc.(jsonAppender); ok {
		return a.AppendJSON(dst)
	}
	buf := bytes.NewBuffer(dst)
	err := json.NewEncoder(buf).Encode(doc)
	return buf.Bytes(), err
}

// encodeBufs recycles WriteJSON's encode buffers. One that grew past
// maxPooledEncodeBuf is dropped, not pooled: an unwindowed query on a
// persistent store can be hundreds of MB, and the pool must not pin that.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledEncodeBuf = 4 << 20

// BadRequest answers 400 with err in the error envelope.
func BadRequest(w http.ResponseWriter, err error) {
	WriteJSON(w, http.StatusBadRequest, ErrorBody{Error: err.Error()})
}

// AccessLog receives one call per request, on the request goroutine; it
// must be safe for concurrent use.
type AccessLog func(method, path string, status int, d time.Duration, bytes int64)

// Handler routes a daemon's endpoints. It implements http.Handler.
//
// Metrics and the access log share one timing path: a request is wrapped
// in a status-capturing writer only when at least one of them is set, so
// an unobserved handler serves with no wrapper at all. HandleFunc,
// Instrument (after the routes) and SetAccessLog are wiring-time calls,
// made before the handler is shared.
type Handler struct {
	prefix string
	mux    *http.ServeMux
	// endpoints holds the per-path metric handles (nil until Instrument),
	// interned at wiring time so the request path never touches the
	// registry lock except on error responses, which intern a per-status
	// counter. Paths outside the mounted surface fold into other, so
	// cardinality is bounded no matter what clients probe.
	reg       *obs.Registry
	endpoints map[string]*endpointMetrics
	other     *endpointMetrics
	accessLog AccessLog
}

type endpointMetrics struct {
	label    string
	requests *obs.Counter
	latency  *obs.Histogram
	bytes    *obs.Counter
}

// NewHandler returns a handler whose request metrics are named
// <prefix>_http_* (envmon, envfed, envcap).
func NewHandler(prefix string) *Handler {
	return &Handler{prefix: prefix, mux: http.NewServeMux(), endpoints: map[string]*endpointMetrics{}}
}

// HandleFunc mounts fn at the exact path. The path minus its leading
// slash is the endpoint's metric label.
func (h *Handler) HandleFunc(path string, fn http.HandlerFunc) {
	h.mux.HandleFunc(path, fn)
	h.endpoints[path] = nil
}

// Instrument registers request metrics for every mounted path (and
// "other") in reg and mounts reg's exposition at /metrics. A nil reg is a
// no-op.
func (h *Handler) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	h.mux.Handle("/metrics", reg.Handler())
	h.endpoints["/metrics"] = nil
	intern := func(label string) *endpointMetrics {
		return &endpointMetrics{
			label: label,
			requests: reg.Counter(h.prefix+"_http_requests_total",
				"HTTP requests served, by endpoint.", "endpoint", label),
			latency: reg.Histogram(h.prefix+"_http_request_seconds",
				"HTTP request handling latency, by endpoint.", obs.DefLatencyBuckets, "endpoint", label),
			bytes: reg.Counter(h.prefix+"_http_response_bytes_total",
				"HTTP response body bytes written, by endpoint.", "endpoint", label),
		}
	}
	for path := range h.endpoints {
		h.endpoints[path] = intern(path[1:])
	}
	h.other = intern("other")
	h.reg = reg
}

// SetAccessLog installs a structured access-log callback sharing the
// metrics' timing path: one clock read per request serves both.
func (h *Handler) SetAccessLog(f AccessLog) { h.accessLog = f }

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.reg == nil && h.accessLog == nil {
		h.serve(w, r)
		return
	}
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	h.serve(sw, r)
	d := time.Since(start)
	if h.reg != nil {
		em := h.endpoints[r.URL.Path]
		if em == nil {
			em = h.other
		}
		em.requests.Inc()
		em.latency.ObserveDuration(d)
		em.bytes.Add(uint64(sw.bytes))
		if sw.status >= 400 {
			// Interned on first occurrence per (endpoint, code): error
			// responses are off the hot path, and enumerating every status
			// code upfront would be cardinality for nothing.
			h.reg.Counter(h.prefix+"_http_errors_total",
				"HTTP error responses, by endpoint and status code.",
				"endpoint", em.label, "code", strconv.Itoa(sw.status)).Inc()
		}
	}
	if h.accessLog != nil {
		h.accessLog(r.Method, r.URL.Path, sw.status, d, sw.bytes)
	}
}

func (h *Handler) serve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet) // RFC 9110 §15.5.6: a 405 names what is allowed
		WriteJSON(w, http.StatusMethodNotAllowed, ErrorBody{Error: "GET only"})
		return
	}
	h.mux.ServeHTTP(w, r)
}

// statusWriter captures the response status and body size for the
// metrics and access-log paths.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}
