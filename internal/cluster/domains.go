package cluster

import (
	"fmt"
	"io"
	"time"

	"envmon/internal/core"
	"envmon/internal/moneq"
	"envmon/internal/resilience"
	"envmon/internal/simclock"
)

// Domains shards a cluster's nodes across independent clock domains so the
// whole machine steps on every host core instead of one. Each node — all of
// its devices and all of its timers — belongs to exactly one domain, so
// node-local state is only ever touched from one goroutine at a time;
// cross-node work (aggregate sums, series merges) belongs in the barrier
// callback of AdvanceEpochs, which runs with every domain parked at the
// same instant.
//
// Determinism survives the sharding: per-domain event order is
// scheduling-independent, nodes on different domains share no state, and
// the shard map is a pure function of (node index, shard count) — so a run
// produces byte-identical output whether it is stepped with 1 worker or N.
type Domains struct {
	cluster *Cluster
	group   *simclock.Group
	shard   []int // node index -> domain index
}

// Domains shards the cluster's nodes round-robin across the given number
// of clock domains. A non-positive count, or one larger than the node
// count, selects one domain per node.
func (c *Cluster) Domains(shards int) *Domains {
	n := len(c.Nodes)
	if shards <= 0 || shards > n {
		shards = n
	}
	d := &Domains{cluster: c, group: simclock.NewGroup(shards), shard: make([]int, n)}
	for i := range d.shard {
		d.shard[i] = i % shards
	}
	return d
}

// Shards reports the number of clock domains.
func (d *Domains) Shards() int { return d.group.Len() }

// Clock returns the clock domain that drives node i — the clock every one
// of that node's timers must be scheduled on.
func (d *Domains) Clock(node int) core.Clock { return d.group.Clock(d.shard[node]) }

// Now reports the trailing edge across domains; after an advance every
// domain sits at the same instant and Now is that instant.
func (d *Domains) Now() time.Duration { return d.group.Now() }

// AdvanceEpochs steps every domain to target in lock-step epochs on a pool
// of the given size (<= 0 selects one worker per host core; 1 is serial),
// running atBarrier (if non-nil) single-threaded at each boundary with all
// domains parked — the place for cross-node aggregation.
func (d *Domains) AdvanceEpochs(target, epoch time.Duration, workers int, atBarrier func(now time.Duration)) {
	d.group.AdvanceEpochs(target, epoch, workers, atBarrier)
}

// DomainJobConfig parameterizes StartJob over sharded nodes.
type DomainJobConfig struct {
	// Registry builds each node's collectors; nil selects
	// core.DefaultRegistry.
	Registry *core.Registry
	// Interval is the polling interval applied to every collector; zero
	// selects each collector's own hardware minimum.
	Interval time.Duration
	// NumTasks for the overhead model; non-positive means one per node.
	NumTasks int
	// Backends, when non-empty, restricts collection to attachments with
	// these keys (e.g. only the MICRAS daemon path). Empty collects every
	// attachment on every node.
	Backends []core.BackendKey
	// Output, when non-nil, supplies the per-node CSV destination.
	Output func(node int) io.Writer
	// Sinks, when non-nil, supplies additional per-node sinks run at
	// FinalizeAll — how a job streams into the telemetry store.
	Sinks func(node int) []moneq.Sink
	// Resilience, when non-nil, wraps every collector in a retry + circuit
	// breaker chain with this policy and folds chain fallbacks (see
	// DefaultChains) behind their primaries, so a backend fault degrades
	// collection instead of erroring every poll.
	Resilience *resilience.Policy
	// OnResilience, when non-nil, receives each node's assembled chains —
	// the hook a daemon uses to surface breaker state on /healthz. Called
	// once per node during StartJob, before any polling.
	OnResilience func(node string, chains []*resilience.Collector)
}

// StartJob starts a MonEQ monitor on every node, each bound to its node's
// clock domain, so a cluster-wide profiling job polls concurrently as the
// domains advance. Per-node output is unchanged from a single-clock job:
// a node's collectors all live on one domain, where timers fire in
// timestamp-then-FIFO order exactly as on the global clock.
func (d *Domains) StartJob(cfg DomainJobConfig) (*moneq.Job, error) {
	reg := cfg.Registry
	if reg == nil {
		reg = core.DefaultRegistry
	}
	numTasks := cfg.NumTasks
	if numTasks <= 0 {
		numTasks = len(d.cluster.Nodes)
	}
	chains := DefaultChains()
	specs := make([]moneq.NodeSpec, 0, len(d.cluster.Nodes))
	for i, n := range d.cluster.Nodes {
		var cols []core.Collector
		var err error
		if cfg.Resilience != nil {
			var rcs []*resilience.Collector
			cols, rcs, err = buildResilient(n, reg, *cfg.Resilience, chains, cfg.Backends)
			if err == nil && cfg.OnResilience != nil {
				cfg.OnResilience(n.Name, rcs)
			}
		} else {
			cols, err = n.Devices().CollectorsFor(reg, cfg.Backends...)
		}
		if err != nil {
			return nil, fmt.Errorf("cluster: node %s: %w", n.Name, err)
		}
		if len(cols) == 0 {
			return nil, fmt.Errorf("cluster: node %s has no collectors for the requested backends", n.Name)
		}
		var out io.Writer
		if cfg.Output != nil {
			out = cfg.Output(i)
		}
		var sinks []moneq.Sink
		if cfg.Sinks != nil {
			sinks = cfg.Sinks(i)
		}
		specs = append(specs, moneq.NodeSpec{
			Node:       n.Name,
			Rank:       i,
			Collectors: cols,
			Output:     out,
			Sinks:      sinks,
			Clock:      d.Clock(i),
		})
	}
	return moneq.StartJob(d.group.Clock(0), cfg.Interval, numTasks, specs)
}
