package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"envmon/internal/federation"
	"envmon/internal/obs"
	"envmon/internal/telemetry"
	"envmon/internal/telemetry/httpapi"
)

// This file wires the real packages the way the daemons wire them, so the
// benchmark measures the stack an operator runs and not a stripped one:
// stores are instrumented with a registry, a tracer and a slow-op log as
// cmd/envmond does, the HTTP servers are instrumented and listen on
// loopback sockets with keep-alive, and every Options/Config field a
// daemon leaves at its default is left at its default here.

// storeShards is envmond's -store-shards default.
const storeShards = 8

// listener is one http.Server on a loopback port.
type listener struct {
	url  string
	srv  *http.Server
	done chan error
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

// close stops the server and waits for its accept loop to return.
func (l *listener) close() error {
	err := l.srv.Close()
	if serr := <-l.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// member is one envmond-shaped serving unit: an instrumented store behind
// an instrumented httpapi.Server.
type member struct {
	store *telemetry.Store
	reg   *obs.Registry
	api   *httpapi.Server
	*listener
}

// instrument attaches the self-observability layer exactly as envmond's
// newDaemon does (slow-op threshold at the flag default).
func instrument(st *telemetry.Store) *obs.Registry {
	reg := obs.NewRegistry()
	st.Instrument(reg, obs.NewTracer(reg), obs.NewSlowLog(reg, 100*time.Millisecond, 256))
	return reg
}

// serveStore puts an already instrumented store behind an HTTP server.
// wrap, when non-nil, is the harness's tracing middleware.
func serveStore(st *telemetry.Store, reg *obs.Registry, now func() time.Duration, wrap func(http.Handler) http.Handler) (*member, error) {
	api := httpapi.New(st, now)
	api.Instrument(reg)
	var h http.Handler = api
	if wrap != nil {
		h = wrap(h)
	}
	l, err := listen(h)
	if err != nil {
		return nil, err
	}
	return &member{store: st, reg: reg, api: api, listener: l}, nil
}

func (m *member) close() error {
	err := m.listener.close()
	m.store.Close()
	return err
}

// front is an envfedd-shaped federation front-end over members.
type front struct {
	fed *federation.Federator
	reg *obs.Registry
	*listener
}

// serveFederation fans out to the given member URLs with envfedd's flag
// defaults (2 s member deadline, 5 s query deadline, one retry).
func serveFederation(urls []string, wrap func(http.Handler) http.Handler) (*front, error) {
	members := make([]federation.Member, len(urls))
	for i, u := range urls {
		members[i] = federation.Member{Name: fmt.Sprintf("m%02d", i), URL: u}
	}
	fed, err := federation.New(federation.Config{Members: members})
	if err != nil {
		return nil, err
	}
	api := federation.NewServer(fed)
	api.DefaultDeadline = 5 * time.Second
	reg := obs.NewRegistry()
	api.Instrument(reg)
	var h http.Handler = api
	if wrap != nil {
		h = wrap(h)
	}
	l, err := listen(h)
	if err != nil {
		return nil, err
	}
	return &front{fed: fed, reg: reg, listener: l}, nil
}

// copyTree copies a data directory file by file: the file-level snapshot
// the durability check and the reopen timings run on.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
