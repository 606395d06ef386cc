package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"envmon/internal/bgq"
	"envmon/internal/cluster"
	"envmon/internal/core"
	chassis "envmon/internal/daemon" // renamed: this package's own type is called daemon
	"envmon/internal/envdb"
	"envmon/internal/faults"
	"envmon/internal/moneq"
	"envmon/internal/obs"
	"envmon/internal/resilience"
	"envmon/internal/telemetry"
	"envmon/internal/telemetry/httpapi"
	"envmon/internal/workload"
)

// cycle is how often the simulated workload restarts.
const cycle = 260 * time.Second

// config carries every envmond knob, so the daemon is constructible from a
// test without flag parsing; registerFlags holds the defaults.
type config struct {
	listen   string
	nodes    int
	shards   int
	interval time.Duration
	epoch    time.Duration
	tick     time.Duration
	seed     uint64
	envdbIvl time.Duration
	// faultSpec, when non-empty, decorates the backend registry with a
	// deterministic fault injector (see faults.ParsePlan for the syntax).
	faultSpec string
	// resilient wraps every collector in a retry + circuit-breaker chain
	// with the paper's fallback topology (cluster.DefaultChains) and
	// surfaces breaker state on /healthz.
	resilient bool
	// dataDir, when non-empty, opens the telemetry store persistently
	// there: ingest is journaled write-ahead, sealed data compacts to
	// blocks, and a restart recovers the full history and keeps ingesting
	// past it.
	dataDir string
	// debugAddr, when non-empty, binds a second listener serving /metrics,
	// net/http/pprof, and /debug/slowops — the operator-only surface, kept
	// off the main API address.
	debugAddr string
	// accessLog logs one structured line per HTTP request through cfg.logf.
	accessLog bool
	// slowOp is the slow-operation threshold: queries and compactions
	// slower than this land in the slow-op ring (0 disables the ring).
	slowOp time.Duration
	logf   func(format string, args ...any)
}

// daemon is an assembled envmond: simulated cluster, telemetry store,
// producers, and the bound chassis server (Addr, DebugAddr), ready to run.
type daemon struct {
	*chassis.Server
	cfg     config
	store   *telemetry.Store
	cluster *cluster.Cluster
	domains *cluster.Domains
	work    workload.Workload
	// nextCycle is the simulated instant at which the workload restarts.
	nextCycle time.Duration
	// job is the per-node MonEQ job whose sets the cursors drain.
	job     *moneq.Job
	cursors []*telemetry.SetCursor
	bridge  *telemetry.EnvDBBridge
	// bridgeErr is the last bridge failure logged, so a stalled bridge
	// says so once per distinct cause instead of once per barrier.
	bridgeErr string
	api       *httpapi.Server

	// Self-observability: the daemon watches itself with the same care it
	// watches the machine room. Always on — the registry costs nothing
	// until scraped.
	reg     *obs.Registry
	tracer  *obs.Tracer
	slow    *obs.SlowLog
	started time.Time
	// offset maps the fresh simulation clock (restarts at zero) onto the
	// recovered store's timeline: every ingest and the reported sim-now are
	// shifted by it, so a restarted daemon appends after the history it
	// recovered instead of colliding with it.
	offset time.Duration

	mu     sync.Mutex
	chains []chainEntry // per-node resilience chains, for /healthz
}

type chainEntry struct {
	node   string
	chains []*resilience.Collector
}

// newDaemon builds the daemon and binds the listen address (so a caller
// with ":0" can read the real port from Addr before running). On error
// nothing it opened stays open.
func newDaemon(cfg config) (_ *daemon, err error) {
	if cfg.nodes <= 0 {
		return nil, fmt.Errorf("nodes must be positive")
	}
	if cfg.epoch <= 0 || cfg.tick <= 0 {
		return nil, fmt.Errorf("epoch and tick must be positive")
	}
	if cfg.logf == nil {
		cfg.logf = log.Printf
	}
	// Reject what the flags alone can get wrong before the store opens
	// anything.
	var plan faults.Plan
	base := core.DefaultRegistry
	if cfg.faultSpec != "" {
		plan, err = faults.ParsePlan(cfg.faultSpec, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("bad -faults: %w", err)
		}
		base = faults.Decorate(base, plan)
	}

	d := &daemon{cfg: cfg, started: time.Now(), nextCycle: cycle}
	d.reg = obs.NewRegistry()
	d.tracer = obs.NewTracer(d.reg)
	d.slow = obs.NewSlowLog(d.reg, cfg.slowOp, 256)
	if cfg.dataDir != "" {
		st, err := telemetry.Open(cfg.dataDir, telemetry.Options{})
		if err != nil {
			return nil, fmt.Errorf("opening data dir: %w", err)
		}
		d.store = st
		// Resume after the recovered history, rounded up to the next epoch
		// boundary so the first barrier flush is strictly past everything
		// recovered.
		if maxT := st.MaxTime(); maxT > 0 {
			d.offset = (maxT/cfg.epoch + 1) * cfg.epoch
			rec := st.StorageStats().Recovery
			cfg.logf("envmond: recovered %d series (%d journaled samples, %d gaps) from %s; resuming at %v",
				rec.Series, rec.Samples, rec.Gaps, cfg.dataDir, d.offset)
		}
	} else {
		d.store = telemetry.New(telemetry.Options{})
	}
	// Every error return from here on closes the store, and with it the
	// block files and WAL segments Open holds.
	defer func() {
		if err != nil {
			d.store.Close()
		}
	}()
	d.store.Instrument(d.reg, d.tracer, d.slow)

	// The monitored machine: a Stampede-shaped partition on sharded clock
	// domains, every node profiled by MonEQ on its own domain.
	c, err := cluster.NewStampede(cfg.nodes, cfg.seed)
	if err != nil {
		return nil, err
	}
	d.cluster = c
	d.work = workload.PhiGauss(100*time.Second, 140*time.Second)
	c.Run(d.work, 0, 50*time.Millisecond)
	d.domains = c.Domains(cfg.shards)

	jobCfg := cluster.DomainJobConfig{Interval: cfg.interval}
	// Instrumentation wraps outermost, so it observes the same (possibly
	// faulty) collector the rest of the stack sees.
	jobCfg.Registry = obs.Decorate(base, d.reg, d.tracer)
	if cfg.resilient {
		jobCfg.Resilience = &resilience.Policy{Hooks: d.resilienceHooks()}
		jobCfg.OnResilience = func(node string, chains []*resilience.Collector) {
			d.mu.Lock()
			d.chains = append(d.chains, chainEntry{node: node, chains: chains})
			d.mu.Unlock()
		}
		d.registerBreakerGauges()
	}
	d.job, err = d.domains.StartJob(jobCfg)
	if err != nil {
		return nil, err
	}
	d.cursors = make([]*telemetry.SetCursor, len(d.job.Monitors()))
	for i, m := range d.job.Monitors() {
		d.cursors[i] = telemetry.NewSetCursor(d.store, m.Node(), m.Set())
		d.cursors[i].Offset = d.offset
	}

	// The second producer: a BG/Q machine shipping records through the
	// environmental database, drained into the same store by the bridge.
	machine := bgq.New(bgq.Config{Name: "bgq", Racks: 1, Seed: cfg.seed})
	machine.Run(workload.MMPS(cycle), 0)
	db := envdb.New()
	if _, err := machine.StartEnvironmentalPoller(d.domains.Clock(0), db, cfg.envdbIvl); err != nil {
		return nil, err
	}
	d.bridge, err = telemetry.StartEnvDBBridge(d.domains.Clock(0), db, d.store, cfg.envdbIvl)
	if err != nil {
		return nil, err
	}
	d.bridge.Offset = d.offset
	// A bridge stalled behind a rejecting store, or dropping records the
	// store will never take, must be visible on a running daemon.
	d.reg.CounterFunc("envmon_envdb_bridge_moved_total",
		"Environmental-database records ingested into the store.",
		func() float64 { return float64(d.bridge.Moved()) })
	d.reg.CounterFunc("envmon_envdb_bridge_dropped_total",
		"Environmental-database records the store rejected as out-of-order.",
		func() float64 { return float64(d.bridge.Dropped()) })
	d.reg.GaugeFunc("envmon_envdb_bridge_pending",
		"Environmental-database records parked awaiting a healthy store.",
		func() float64 { return float64(d.bridge.Pending()) })

	// Daemon-level gauges: uptime feeds the ingest-rate estimate in
	// envtop's header; sim-now lets a scrape correlate wall and simulated
	// timelines without a /healthz call.
	d.reg.GaugeFunc("envmon_uptime_seconds",
		"Daemon wall-clock uptime.",
		func() float64 { return time.Since(d.started).Seconds() })
	d.reg.GaugeFunc("envmon_sim_now_seconds",
		"Current simulated time, including any recovery offset.",
		func() float64 { return (d.domains.Now() + d.offset).Seconds() })

	api := httpapi.New(d.store, func() time.Duration { return d.domains.Now() + d.offset })
	d.api = api
	api.Instrument(d.reg)
	if cfg.accessLog {
		api.SetAccessLog(func(method, path string, status int, dur time.Duration, bytes int64) {
			cfg.logf("envmond: access %s %s %d %dB %s", method, path, status, bytes, dur)
		})
	}
	if cfg.faultSpec != "" {
		api.SetFaults(plan.String())
	}
	if cfg.resilient {
		api.SetBreakers(d.backendHealth)
	}
	d.Server, err = chassis.Listen(chassis.Config{
		Name: "envmond", Addr: cfg.listen, Handler: api, Logf: cfg.logf,
		DebugAddr: cfg.debugAddr, Registry: d.reg, Slow: d.slow,
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// resilienceHooks adapts the chains' observation surface onto the metrics
// registry. The hooks run under each chain's lock on the polling
// goroutine: the poll hook touches only pre-interned handles; retry and
// transition hooks intern through the registry's get-or-create, which is
// one map lookup and acceptable for events that are rare by construction.
func (d *daemon) resilienceHooks() resilience.Hooks {
	stage := d.tracer.Stage("resilience")
	fallbacks := d.reg.Counter("envmon_resilience_fallbacks_total",
		"Polls answered by a non-primary source.")
	dropped := d.reg.Counter("envmon_resilience_dropped_polls_total",
		"Polls no source could answer.")
	return resilience.Hooks{
		Retry: func(method string) {
			d.reg.Counter("envmon_resilience_retries_total",
				"Backoff retries, by retried source method.",
				"method", method).Inc()
		},
		Transition: func(method string, from, to resilience.State) {
			d.reg.Counter("envmon_breaker_transitions_total",
				"Breaker state transitions, by source method and new state.",
				"method", method, "to", to.String()).Inc()
			d.cfg.logf("envmond: breaker %s: %s -> %s", method, from, to)
		},
		Poll: func(served string, wall, sim time.Duration, fellBack bool) {
			stage.Observe(wall, sim)
			if served == "" {
				dropped.Inc()
			} else if fellBack {
				fallbacks.Inc()
			}
		},
	}
}

// registerBreakerGauges publishes the /healthz breaker view as
// envmon_breaker_sources{state} gauges, computed at scrape time from the
// same chain snapshot.
func (d *daemon) registerBreakerGauges() {
	count := func(state string) func() float64 {
		return func() float64 {
			n := 0
			for _, b := range d.backendHealth() {
				for _, s := range b.Sources {
					if s.State == state {
						n++
					}
				}
			}
			return float64(n)
		}
	}
	for _, state := range []string{"closed", "open", "half-open"} {
		d.reg.GaugeFunc("envmon_breaker_sources",
			"Chain sources by breaker state.", count(state), "state", state)
	}
}

// backendHealth snapshots every chain's breaker state for /healthz. Chains
// guard their status with a lock, so this is safe against concurrent
// domain polls.
func (d *daemon) backendHealth() []httpapi.BackendHealth {
	d.mu.Lock()
	entries := d.chains
	d.mu.Unlock()
	var out []httpapi.BackendHealth
	for _, e := range entries {
		for _, ch := range e.chains {
			out = append(out, httpapi.BackendHealth{Node: e.node, Method: ch.Method(), Sources: ch.Status()})
		}
	}
	return out
}

// run serves and advances until ctx is cancelled, then shuts down: the
// HTTP server drains, the advance loop parks, and a final cursor flush
// moves every sample still in a set into the store so nothing collected is
// lost.
func (d *daemon) run(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Advance loop: every wall tick, step the domains one epoch.
	advDone := make(chan struct{})
	go func() {
		defer close(advDone)
		ticker := time.NewTicker(d.cfg.tick)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
			}
			d.step()
		}
	}()

	err := d.Server.Run(ctx, func() {
		cancel() // a listener failure parks the advance loop too
		// From here on the store is headed for Close: answer data-plane
		// requests racing the drain with an explicit 503 instead of letting
		// them hang in Shutdown or hit a half-closed store.
		d.api.StartClosing()
		<-advDone
	})
	// The loop is parked and no domain is advancing: one final flush
	// drains everything the samplers recorded since the last barrier.
	d.flush()
	d.bridge.Stop()
	// Seal the in-memory tail into blocks before exiting, so the next
	// start recovers from blocks alone and the journal stays empty.
	if d.cfg.dataDir != "" {
		if ferr := d.store.Flush(); ferr != nil {
			d.cfg.logf("envmond: final flush: %v", ferr)
		}
	}
	d.store.Close()
	return err
}

// step advances the domains one epoch and, at the barrier (domains parked,
// sets quiescent), flushes the per-node cursors and restarts the workload
// when its cycle has run out. The domains advance on one worker per host
// core; the result is byte-identical at any worker count.
func (d *daemon) step() {
	target := d.domains.Now() + d.cfg.epoch
	d.domains.AdvanceEpochs(target, d.cfg.epoch, 0, func(now time.Duration) {
		d.flush()
		if now >= d.nextCycle {
			d.cluster.Run(d.work, now, 50*time.Millisecond)
			d.nextCycle = now + cycle
		}
	})
}

// flush moves every cursor's backlog into the store and reports a bridge
// failure it has not reported yet. Call only with the clock domains parked.
func (d *daemon) flush() {
	for _, cur := range d.cursors {
		if err := cur.Flush(); err != nil {
			d.cfg.logf("envmond: %v", err)
		}
	}
	if err := d.bridge.Err(); err != nil && err.Error() != d.bridgeErr {
		d.bridgeErr = err.Error()
		d.cfg.logf("envmond: %v (%d parked, %d dropped)", err, d.bridge.Pending(), d.bridge.Dropped())
	}
}
