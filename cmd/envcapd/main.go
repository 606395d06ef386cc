// Command envcapd is the power-capping control plane: a feedback
// controller that watches fleet power through a telemetry endpoint (a
// single envmond or a federated envfedd) and holds a configured budget —
// including while the telemetry plane lies, lags, or dies.
//
// Each tick it queries the endpoint, judges the response's freshness
// metadata (sim_now_ns/newest_ns), and steps the controller: fresh data
// drives proportional capping with hysteresis and slew limits; stale
// data clamps the cap to the budget (no data is never headroom); and
// telemetry unreachable past the watchdog deadline walks the cap down a
// published ladder to the floor. Every decision lands in a bounded log.
//
// The decision stream is the actuation surface: an external scheduler or
// BMC integration polls /decisions (or /healthz) and applies the
// commanded cap; inside the simulation the same controller drives
// cluster duty-cycle throttles directly (see internal/powercap).
//
//	GET /healthz     controller status: mode, cap, measured, rung, violations
//	GET /decisions   the decision log as byte-stable CSV
//	GET /metrics     Prometheus-text exposition (envcap_* series)
//
// Usage:
//
//	envcapd -telemetry http://127.0.0.1:9120 -budget 9000
//	envcapd -telemetry http://127.0.0.1:9320 -budget 9000 -floor 3000 \
//	        -watchdog 10s -ladder 0.8,0.6,0.4 -ladder-hold 5s
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"envmon/internal/daemon"
)

// registerFlags declares envcapd's flags on fs; the defaults live here
// and nowhere else.
func registerFlags(fs *flag.FlagSet) *config {
	cfg := new(config)
	fs.StringVar(&cfg.listen, "listen", "127.0.0.1:9420", "HTTP listen address")
	fs.StringVar(&cfg.telemetry, "telemetry", "",
		"telemetry endpoint to watch: an envmond or envfedd base URL (required)")
	fs.Float64Var(&cfg.budget, "budget", 0, "fleet power budget in watts (required)")
	fs.Float64Var(&cfg.floor, "floor", 0, "lowest cap in watts (0 = 20% of budget)")
	fs.DurationVar(&cfg.freshness, "freshness", 0, "max data age treated as fresh (0 = 3s)")
	fs.DurationVar(&cfg.watchdog, "watchdog", 0,
		"no-fresh-data deadline before the degradation ladder starts (0 = 10s)")
	fs.StringVar(&cfg.ladderSpec, "ladder", "",
		"degradation ladder: comma-separated descending budget fractions (default 0.9,0.75,0.6,0.4)")
	fs.DurationVar(&cfg.ladderHold, "ladder-hold", 0, "time per ladder rung (0 = 5s)")
	fs.DurationVar(&cfg.interval, "interval", time.Second, "control loop tick interval")
	fs.DurationVar(&cfg.deadline, "deadline", 2*time.Second, "per-query server-side deadline")
	return cfg
}

func main() {
	cfg := registerFlags(flag.CommandLine)
	flag.Parse()

	if cfg.telemetry == "" || cfg.budget <= 0 {
		fmt.Fprintln(os.Stderr, "envcapd: -telemetry and a positive -budget are required")
		os.Exit(2)
	}
	d, err := newCapDaemon(*cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "envcapd: %v\n", err)
		os.Exit(2)
	}

	log.Printf("envcapd: holding %.0f W over %s at http://%s (tick %v, watchdog %v)",
		cfg.budget, cfg.telemetry, d.Addr(), cfg.interval, d.ctrl.Config().Watchdog)
	daemon.Main("envcapd", d.run)
}
