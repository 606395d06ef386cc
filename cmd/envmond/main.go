// Command envmond is the operator-facing aggregation daemon: the paper's
// end state where environmental data flows into a central service that
// tools query, instead of living in per-job output files.
//
// The daemon runs a sharded simulated cluster (one clock domain per shard
// of nodes, advanced continuously in the background), profiles every node
// with MonEQ, and streams the samples into a sharded telemetry store at
// each epoch barrier. A BG/Q machine feeds the same store through the
// environmental-database bridge, so both of the paper's delivery paths —
// per-job library collection and central-database collection — land in one
// queryable place. The store is served over HTTP/JSON:
//
//	GET /healthz   liveness, series/sample counters, simulated now,
//	               per-backend breaker state when -resilience is on
//	GET /series    every stored series
//	GET /query     frames (raw or 1s/10s/60s rollups) over a window
//	GET /topk      nodes ranked by mean power
//	GET /metrics   Prometheus-text self-observability exposition
//
// With -debug-addr a second listener serves the operator-only surface:
// /metrics again, net/http/pprof, and the slow-op ring at /debug/slowops.
//
// Usage:
//
//	envmond                                  # 8 nodes, 4 domains, :9120
//	envmond -listen :9120 -nodes 64 -shards 8 -tick 50ms -epoch 1s
//	envmond -resilience -faults 'transient=0.1,lose=SysMgmt API@60s-120s'
//	envmond -debug-addr 127.0.0.1:9121 -access-log -slow-op 50ms
//	envtop -remote http://127.0.0.1:9120     # watch it from another shell
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	chassis "envmon/internal/daemon"
	"envmon/internal/envdb"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.listen, "listen", "127.0.0.1:9120", "HTTP listen address")
	flag.IntVar(&cfg.nodes, "nodes", 8, "cluster nodes to simulate")
	flag.IntVar(&cfg.shards, "shards", 4, "clock domains to shard the nodes across (0 = one per node)")
	flag.IntVar(&cfg.storeShards, "store-shards", 8, "lock-striped shards of the telemetry store")
	flag.IntVar(&cfg.workers, "workers", 0, "advance workers (0 = one per host core)")
	flag.DurationVar(&cfg.interval, "interval", 0, "MonEQ polling interval (0 = per-mechanism hardware minimum)")
	flag.DurationVar(&cfg.epoch, "epoch", time.Second, "simulated time advanced per tick (also the barrier/flush granularity)")
	flag.DurationVar(&cfg.tick, "tick", 100*time.Millisecond, "wall-clock interval between simulation ticks")
	flag.DurationVar(&cfg.duration, "duration", 0, "stop advancing after this much simulated time (0 = run forever)")
	flag.DurationVar(&cfg.cycle, "cycle", 260*time.Second, "restart the workload every this much simulated time")
	flag.Uint64Var(&cfg.seed, "seed", 42, "noise seed")
	flag.IntVar(&cfg.bgqRacks, "bgq-racks", 1, "BG/Q racks feeding the envdb bridge (0 disables)")
	flag.DurationVar(&cfg.envdbIvl, "envdb-interval", envdb.DefaultPollInterval, "environmental-database polling interval")
	flag.StringVar(&cfg.faultSpec, "faults", "", "deterministic fault plan, e.g. 'transient=0.1,lose=NVML#0@60s' (empty disables)")
	flag.BoolVar(&cfg.resilient, "resilience", false, "wrap collectors in retry + breaker + fallback chains; /healthz reports breaker state")
	flag.StringVar(&cfg.dataDir, "data-dir", "", "persist telemetry under this directory (WAL + compacted blocks); empty keeps the store in memory")
	flag.StringVar(&cfg.debugAddr, "debug-addr", "", "serve /metrics, net/http/pprof, and /debug/slowops on this second address (empty disables)")
	flag.BoolVar(&cfg.accessLog, "access-log", false, "log one structured line per HTTP request")
	flag.DurationVar(&cfg.slowOp, "slow-op", 100*time.Millisecond, "queries and compactions slower than this land in the slow-op log (0 disables)")
	flag.Parse()

	d, err := newDaemon(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "envmond: %v\n", err)
		os.Exit(2)
	}

	mode := ""
	if cfg.faultSpec != "" {
		mode += " faults=on"
	}
	if cfg.resilient {
		mode += " resilience=on"
	}
	log.Printf("envmond: serving %d nodes on %d clock domains at http://%s (tick %v, epoch %v)%s",
		cfg.nodes, d.domains.Shards(), d.Addr(), cfg.tick, cfg.epoch, mode)
	chassis.Main("envmond", d.run)
}
