// Command envfedd is the federation front-end: one query endpoint over
// many envmond daemons. It fans /query, /topk, and /healthz out to every
// member concurrently, merges the partial results deterministically
// (cluster-wide top-K is byte-identical no matter how nodes are
// partitioned across members), and serves the same wire types a single
// envmond serves — envtop -remote works unmodified against it.
//
//	GET /healthz   federated liveness: summed counters, member section
//	GET /query     merged frames across every member
//	GET /topk      cluster-wide ranking merged from per-member rankings
//	GET /members   every member daemon with its circuit breaker position
//	GET /metrics   Prometheus-text self-observability exposition
//
// A member that cannot answer (dead, slow past the deadline, breaker
// open) is reported as an explicit missing-member entry in a degraded
// section of the response — the member-level analogue of the store's gap
// markers, never a silent zero.
//
// Usage:
//
//	envfedd -members http://127.0.0.1:9120,http://127.0.0.1:9220
//	envfedd -listen :9320 -members 'rack0=http://10.0.0.1:9120,rack1=http://10.0.0.2:9120' \
//	        -member-deadline 2s -deadline 5s
//	envtop -remote http://127.0.0.1:9320     # cluster-wide top-K
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"envmon/internal/daemon"
	"envmon/internal/federation"
	"envmon/internal/obs"
)

// config carries every envfedd knob, so the daemon is constructible from
// a test without flag parsing.
type config struct {
	listen           string
	membersSpec      string
	memberDeadline   time.Duration
	queryDeadline    time.Duration
	workers          int
	retries          int
	breakerThreshold int
	breakerCooldown  time.Duration
	accessLog        bool
	logf             func(format string, args ...any)
}

// fedDaemon is an assembled envfedd: federator and the bound chassis
// server (Addr).
type fedDaemon struct {
	*daemon.Server
	fed *federation.Federator
}

// newFedDaemon builds the daemon and binds the listen address (so a
// caller with ":0" can read the real port from Addr before running).
func newFedDaemon(cfg config) (*fedDaemon, error) {
	if cfg.logf == nil {
		cfg.logf = log.Printf
	}
	members, err := federation.ParseMembers(cfg.membersSpec)
	if err != nil {
		return nil, err
	}
	// -retries is a plain count of extra attempts; the library reads its
	// zero as "use the default" and anything negative as none.
	retries := cfg.retries
	if retries == 0 {
		retries = -1
	}
	fed, err := federation.New(federation.Config{
		Members:          members,
		MemberDeadline:   cfg.memberDeadline,
		Workers:          cfg.workers,
		Retries:          retries,
		BreakerThreshold: cfg.breakerThreshold,
		BreakerCooldown:  cfg.breakerCooldown,
	})
	if err != nil {
		return nil, err
	}
	d := &fedDaemon{fed: fed}
	reg := obs.NewRegistry()
	api := federation.NewServer(fed)
	api.DefaultDeadline = cfg.queryDeadline
	api.Instrument(reg)
	if cfg.accessLog {
		api.SetAccessLog(func(method, path string, status int, dur time.Duration, bytes int64) {
			cfg.logf("envfedd: access %s %s %d %dB %s", method, path, status, bytes, dur)
		})
	}
	reg.GaugeFunc("envfed_members_configured",
		"Member daemons this front-end fans out to.",
		func() float64 { return float64(len(members)) })
	d.Server, err = daemon.Listen(daemon.Config{Name: "envfedd", Addr: cfg.listen, Handler: api, Logf: cfg.logf})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// run serves until ctx is cancelled, then drains.
func (d *fedDaemon) run(ctx context.Context) error { return d.Server.Run(ctx, nil) }

// registerFlags declares envfedd's flags on fs; the defaults live here
// and nowhere else.
func registerFlags(fs *flag.FlagSet) *config {
	cfg := new(config)
	fs.StringVar(&cfg.listen, "listen", "127.0.0.1:9320", "HTTP listen address")
	fs.StringVar(&cfg.membersSpec, "members", "",
		"comma-separated member daemons, each 'url' or 'name=url' (required)")
	fs.DurationVar(&cfg.memberDeadline, "member-deadline", 2*time.Second,
		"per-member call deadline; a member past it is reported missing")
	fs.DurationVar(&cfg.queryDeadline, "deadline", 5*time.Second,
		"default whole-query deadline when the request has no deadline_ms (0 disables)")
	fs.IntVar(&cfg.workers, "workers", 0, "concurrent member calls per query (0 = min(8, members))")
	fs.IntVar(&cfg.retries, "retries", 1, "extra attempts per failed member call within the deadline")
	fs.IntVar(&cfg.breakerThreshold, "breaker-threshold", 3,
		"consecutive member failures that open its breaker")
	fs.DurationVar(&cfg.breakerCooldown, "breaker-cooldown", 10*time.Second,
		"how long an open breaker skips a member before probing it again")
	fs.BoolVar(&cfg.accessLog, "access-log", false, "log one structured line per HTTP request")
	return cfg
}

func main() {
	cfg := registerFlags(flag.CommandLine)
	flag.Parse()

	if cfg.membersSpec == "" {
		fmt.Fprintln(os.Stderr, "envfedd: -members is required")
		os.Exit(2)
	}
	d, err := newFedDaemon(*cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "envfedd: %v\n", err)
		os.Exit(2)
	}

	log.Printf("envfedd: federating %d members at http://%s (member deadline %v)",
		len(d.fed.MemberNames()), d.Addr(), cfg.memberDeadline)
	daemon.Main("envfedd", d.run)
}
