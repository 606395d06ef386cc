package daemon

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"envmon/internal/obs"
)

const (
	// readHeaderTimeout bounds how long a peer may take to send its request
	// header; without it a connection that never finishes one holds a
	// goroutine and a descriptor for as long as the daemon lives.
	readHeaderTimeout = 10 * time.Second
	// drainTimeout bounds how long shutdown waits for in-flight API
	// requests; debugDrainTimeout does the same for the debug listener.
	drainTimeout      = 3 * time.Second
	debugDrainTimeout = time.Second
)

// Config parameterizes Listen.
type Config struct {
	// Name prefixes the chassis' own log lines ("envmond").
	Name string
	// Addr is the API listen address; Handler serves it.
	Addr    string
	Handler http.Handler
	// Logf receives the chassis' own log lines. Required.
	Logf func(format string, args ...any)
	// DebugAddr, when non-empty, binds a second listener for the
	// operator-only surface, kept off the API address: Registry's /metrics,
	// net/http/pprof, and Slow's ring at /debug/slowops.
	DebugAddr string
	Registry  *obs.Registry
	Slow      *obs.SlowLog
}

// Server is a daemon's bound listeners, ready to Run.
type Server struct {
	name  string
	logf  func(format string, args ...any)
	api   *http.Server
	ln    net.Listener
	debug *http.Server // nil without a debug address
	dbgLn net.Listener
}

// Listen binds the configured addresses without serving yet, so a caller
// with ":0" can read the real port from Addr before Run. On error nothing
// stays bound.
func Listen(cfg Config) (*Server, error) {
	s := &Server{name: cfg.Name, logf: cfg.Logf}
	var err error
	if s.ln, err = net.Listen("tcp", cfg.Addr); err != nil {
		return nil, err
	}
	s.api = newHTTPServer(cfg.Handler)
	if cfg.DebugAddr != "" {
		if s.dbgLn, err = net.Listen("tcp", cfg.DebugAddr); err != nil {
			s.ln.Close()
			return nil, fmt.Errorf("binding -debug-addr: %w", err)
		}
		s.debug = newHTTPServer(debugMux(cfg.Registry, cfg.Slow))
	}
	return s, nil
}

func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

// debugMux assembles the operator-only debug surface: the same /metrics
// exposition as the API listener, the net/http/pprof handlers, and the
// slow-op ring as JSON.
func debugMux(reg *obs.Registry, slow *obs.SlowLog) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/slowops", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, struct {
			ThresholdNS time.Duration `json:"threshold_ns"`
			Total       uint64        `json:"total"`
			Ops         []obs.SlowOp  `json:"ops"`
		}{slow.Threshold(), slow.Total(), slow.Snapshot()})
	})
	return mux
}

// Addr reports the bound API address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// DebugAddr reports the bound debug address ("" without one).
func (s *Server) DebugAddr() string {
	if s.dbgLn == nil {
		return ""
	}
	return s.dbgLn.Addr().String()
}

// Run serves until ctx is cancelled or the API listener fails, then shuts
// down: closing (when non-nil) runs first — the daemon's chance to turn
// new requests away and park its producers before the drain — then
// in-flight API requests get drainTimeout to finish, then the debug
// listener closes. It returns the listener's error, nil on a clean stop.
func (s *Server) Run(ctx context.Context, closing func()) error {
	srvErr := make(chan error, 1)
	go func() { srvErr <- s.api.Serve(s.ln) }()
	var dbgDone chan struct{}
	if s.debug != nil {
		dbgDone = make(chan struct{})
		go func() {
			defer close(dbgDone)
			if e := s.debug.Serve(s.dbgLn); e != nil && !errors.Is(e, http.ErrServerClosed) {
				s.logf("%s: debug server: %v", s.name, e)
			}
		}()
	}

	var err error
	select {
	case <-ctx.Done():
	case err = <-srvErr:
	}
	if closing != nil {
		closing()
	}
	shutdown(s.api, drainTimeout)
	if err == nil {
		err = <-srvErr
	}
	if s.debug != nil {
		shutdown(s.debug, debugDrainTimeout)
		<-dbgDone
	}
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// shutdown drains srv within bound; requests still running past it are
// cut off rather than left holding their connections.
func shutdown(srv *http.Server, bound time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), bound)
	defer cancel()
	if srv.Shutdown(ctx) != nil {
		srv.Close()
	}
}

// Main runs a daemon's run function under a context that SIGINT or
// SIGTERM cancels, and exits 1 with "name: err" on stderr if it fails.
func Main(name string, run func(context.Context) error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(1)
	}
}
