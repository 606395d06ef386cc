package federation

import (
	"context"
	"net/http"
	"time"

	"envmon/internal/daemon"
	"envmon/internal/obs"
	"envmon/internal/telemetry"
	"envmon/internal/telemetry/client"
	"envmon/internal/telemetry/httpapi"
)

// Server serves a Federator over HTTP with the same wire types as a
// single envmond daemon — /healthz, /query, and /topk answer the same
// documents (plus the degraded section on partial results), so existing
// clients (envtop -remote) work unmodified. /members is the
// federation-only endpoint listing every downstream daemon's breaker
// position. The embedded chassis handler makes it an http.Handler and
// carries SetAccessLog.
type Server struct {
	*daemon.Handler
	fed *Federator

	// DefaultDeadline bounds a query's whole fan-out when the request
	// carries no deadline_ms (0 = member deadlines alone bound it). A
	// wiring-time setting.
	DefaultDeadline time.Duration
}

// NewServer returns a server over fed.
func NewServer(fed *Federator) *Server {
	s := &Server{Handler: daemon.NewHandler("envfed"), fed: fed}
	s.HandleFunc("/healthz", s.handleHealthz)
	s.HandleFunc("/query", s.handleQuery)
	s.HandleFunc("/topk", s.handleTopK)
	s.HandleFunc("/members", s.handleMembers)
	return s
}

// Instrument registers the federator's member metrics and the chassis'
// per-endpoint envfed_http_* request metrics, and mounts /metrics. Call at
// wiring time.
func (s *Server) Instrument(reg *obs.Registry) {
	s.fed.Instrument(reg)
	s.Handler.Instrument(reg)
}

// queryCtx applies the request's deadline_ms (or the server default) to
// the fan-out context. A member that misses the deadline becomes a
// MissingMember in the partial response — the deadline produces degraded
// answers, not hung connections.
func (s *Server) queryCtx(r *http.Request, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		d = s.DefaultDeadline
	}
	if d <= 0 {
		return context.WithCancel(r.Context())
	}
	return context.WithTimeout(r.Context(), d)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	d, err := httpapi.ParseDeadline(r)
	if err != nil {
		daemon.BadRequest(w, err)
		return
	}
	ctx, cancel := s.queryCtx(r, d)
	defer cancel()
	daemon.WriteJSON(w, http.StatusOK, s.fed.Health(ctx))
}

func (s *Server) handleMembers(w http.ResponseWriter, r *http.Request) {
	daemon.WriteJSON(w, http.StatusOK, httpapi.MembersResult{Members: s.fed.Members()})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q, d, err := httpapi.ParseQuery(r)
	if err != nil {
		daemon.BadRequest(w, err)
		return
	}
	ctx, cancel := s.queryCtx(r, d)
	defer cancel()
	// Forward the canonical spellings of what was validated here.
	p := client.QueryParams{
		Node: q.Node, Backend: q.Backend, Domain: q.Domain,
		From: q.From, To: q.To,
		Resolution: q.Resolution.String(),
	}
	if q.Aggregate != telemetry.AggNone {
		p.Aggregate = q.Aggregate.String()
	}
	// The single-daemon 404 rule, applied cluster-wide: see Answer.
	status, doc := s.fed.Query(ctx, p).Answer(q)
	daemon.WriteJSON(w, status, doc)
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	k, q, d, err := httpapi.ParseTopK(r)
	if err != nil {
		daemon.BadRequest(w, err)
		return
	}
	ctx, cancel := s.queryCtx(r, d)
	defer cancel()
	daemon.WriteJSON(w, http.StatusOK, s.fed.TopK(ctx, client.TopKParams{
		K: k, Domain: q.Domain, From: q.From, To: q.To,
		Resolution: q.Resolution.String(),
	}))
}
