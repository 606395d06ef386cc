// Command envtop is a top(1)-style viewer over a simulated heterogeneous
// node: it fast-forwards a virtual machine room and periodically prints
// every device's environmental data through its native vendor mechanism —
// a BG/Q node card via EMON, a Sandy Bridge socket via the MSR driver, a
// K20 via NVML, and a Xeon Phi via its MICRAS daemon.
//
// The devices are assembled into a core.DeviceSet and their collectors
// built through the backend registry, so the refresh loop is one generic
// pass over core.Collector values — adding a mechanism to the node is one
// Attach call, not a new hand-written polling branch.
//
// With -remote, envtop is instead a thin client of a running envmond
// daemon: it polls the daemon's query API on a wall-clock cadence and
// renders the cluster's top power consumers, never touching a vendor
// mechanism itself — the paper's "users consume the data through a
// service" end state.
//
// Usage:
//
//	envtop                       # 60 simulated seconds, 10 s refresh
//	envtop -duration 5m -refresh 30s -seed 7
//	envtop -workload gauss       # mmps | gauss | vecadd | noop
//	envtop -remote http://127.0.0.1:9120 -refresh 2s -duration 10s
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"envmon/internal/bgq"
	"envmon/internal/core"
	"envmon/internal/mic"
	"envmon/internal/micras"
	"envmon/internal/nvml"
	"envmon/internal/rapl"
	"envmon/internal/report"
	"envmon/internal/resilience"
	"envmon/internal/telemetry"
	"envmon/internal/telemetry/client"
	"envmon/internal/telemetry/httpapi"
	"envmon/internal/workload"
)

func pickWorkload(name string, d time.Duration) (workload.Workload, error) {
	switch name {
	case "mmps":
		return workload.MMPS(d), nil
	case "gauss":
		return workload.GaussElim(d), nil
	case "vecadd":
		return workload.VectorAdd(d/8, d-d/8-d/20-time.Second), nil
	case "noop":
		return workload.NoopKernel(d), nil
	default:
		return nil, fmt.Errorf("unknown workload %q (mmps|gauss|vecadd|noop)", name)
	}
}

var (
	powerCap = core.Capability{Component: core.Total, Metric: core.Power}
	tempCap  = core.Capability{Component: core.Die, Metric: core.Temperature}
)

// degradedLine condenses a round's degraded state — the same state the
// power-capping controller acts on — into one line: which members are
// missing and why, how many gaps the stored series carry, and how far the
// laggiest answering member's clock trails the front-end's. Returns false
// when the round is fully healthy, so healthy watches stay uncluttered.
func degradedLine(h httpapi.Health, top httpapi.TopKResult) (string, bool) {
	var missing []httpapi.MissingMember
	members := 0
	if top.Degraded != nil {
		missing, members = top.Degraded.Missing, top.Degraded.Members
	} else if h.Federation != nil {
		missing, members = h.Federation.Missing, h.Federation.Members
	}
	// Data age: a federated sim_now_ns is the minimum across answering
	// members, so the gap to the front-end's own clock is how stale the
	// laggiest member's data may be.
	var age time.Duration
	if top.SimNowNS != 0 && top.SimNowNS < h.SimNowNS {
		age = time.Duration(h.SimNowNS - top.SimNowNS)
	}
	if h.Status == "ok" && len(missing) == 0 && h.Gaps == 0 && age == 0 {
		return "", false
	}
	line := fmt.Sprintf("DEGRADED: status %s", h.Status)
	if len(missing) > 0 {
		line += fmt.Sprintf(", %d/%d members missing (", len(missing), members)
		for i, m := range missing {
			if i > 0 {
				line += "; "
			}
			line += m.Member + ": " + m.Reason
		}
		line += ")"
	}
	if h.Gaps > 0 {
		line += fmt.Sprintf(", %d gaps", h.Gaps)
	}
	if age > 0 {
		line += fmt.Sprintf(", data age %v", age)
	}
	return line, true
}

// remoteRound performs one poll of the daemon and renders it: health for
// the simulated clock, then the top power consumers over the trailing 60
// simulated seconds.
func remoteRound(ctx context.Context, cl *client.Client, base string, k int) error {
	h, err := cl.Health(ctx)
	if err != nil {
		return err
	}
	simNow := time.Duration(h.SimNowNS)
	from := simNow - time.Minute
	if from < 0 {
		from = 0
	}
	top, err := cl.Rank(ctx, httpapi.Request{Query: telemetry.Query{From: from}, K: k})
	if err != nil {
		return err
	}
	fmt.Printf("---- %s  (sim t = %v, %d series, %d samples) ----\n",
		base, simNow, h.Series, h.Samples)
	// The daemon's self-observability header: ingest rate, query p99,
	// breaker summary. Daemons without /metrics (older builds, or the
	// endpoint not wired) just don't get a header line — the watch is not
	// degraded by its absence.
	if snap, err := cl.Metrics(ctx); err == nil {
		fmt.Println(client.SummarizeObs(snap).String())
	}
	if line, bad := degradedLine(h, top); bad {
		fmt.Println(line)
	}
	rows := make([][]string, 0, len(top.Nodes))
	for i, np := range top.Nodes {
		rows = append(rows, []string{
			fmt.Sprintf("%d", i+1), np.Node,
			fmt.Sprintf("%.1f W", np.Watts), fmt.Sprintf("%d", np.Series),
		})
	}
	if err := report.Table(os.Stdout, []string{"#", "Node", "Power (60s mean)", "Series"}, rows); err != nil {
		return err
	}
	fmt.Printf("cluster total: %.1f W (showing top %d)\n\n", top.TotalWatts, len(top.Nodes))
	return nil
}

// watchRemote polls an envmond daemon every refresh of wall-clock time for
// span, rendering the top power consumers from the daemon's aggregated
// view. One round is always printed, even when span < refresh.
//
// A failed poll — connection refused while the daemon restarts, a timeout,
// a 5xx — does not kill the watch: it is retried on the collection chains'
// capped exponential backoff schedule, and only `retries` consecutive
// failures give up. Any success resets the budget and the backoff.
func watchRemote(base string, refresh, span time.Duration, k, retries int) error {
	cl := client.New(base)
	ctx := context.Background()
	deadline := time.Now().Add(span)
	backoff := resilience.Backoff{Initial: 500 * time.Millisecond, Cap: refresh}
	failed := 0
	for {
		if err := remoteRound(ctx, cl, base, k); err != nil {
			failed++
			if failed > retries {
				return fmt.Errorf("%d consecutive polls failed: %w", failed, err)
			}
			// Retrying may run past the span deadline: the promise that at
			// least one round prints outranks it, and the consecutive-failure
			// budget bounds how long a dead daemon can hold the watch.
			wait := backoff.Next()
			fmt.Fprintf(os.Stderr, "envtop: poll failed (%v); retry %d/%d in %v\n", err, failed, retries, wait)
			time.Sleep(wait)
			continue
		}
		failed = 0
		backoff.Reset()
		if time.Now().Add(refresh).After(deadline) {
			return nil
		}
		time.Sleep(refresh)
	}
}

func main() {
	var (
		duration = flag.Duration("duration", time.Minute, "observation span (simulated; wall-clock with -remote)")
		refresh  = flag.Duration("refresh", 10*time.Second, "refresh interval (simulated; wall-clock with -remote)")
		seed     = flag.Uint64("seed", 42, "noise seed")
		wlName   = flag.String("workload", "mmps", "workload to run (mmps|gauss|vecadd|noop)")
		remote   = flag.String("remote", "", "watch a running envmond daemon at this base URL instead of simulating locally")
		topK     = flag.Int("topk", 8, "nodes to show in -remote mode (0 = every node)")
		retries  = flag.Int("retries", 5, "consecutive failed polls tolerated in -remote mode before giving up")
	)
	flag.Parse()

	if *refresh <= 0 {
		fmt.Fprintln(os.Stderr, "envtop: -refresh must be positive")
		os.Exit(2)
	}
	if *duration <= 0 {
		fmt.Fprintln(os.Stderr, "envtop: -duration must be positive")
		os.Exit(2)
	}
	if *topK < 0 {
		fmt.Fprintln(os.Stderr, "envtop: -topk must not be negative")
		os.Exit(2)
	}
	if *remote != "" {
		if err := watchRemote(*remote, *refresh, *duration, *topK, *retries); err != nil {
			fmt.Fprintln(os.Stderr, "envtop:", err)
			os.Exit(1)
		}
		return
	}
	w, err := pickWorkload(*wlName, *duration)
	if err != nil {
		fmt.Fprintln(os.Stderr, "envtop:", err)
		os.Exit(2)
	}

	// The machine room: one device per vendor mechanism.
	machine := bgq.New(bgq.Config{Racks: 1, Seed: *seed})
	card := machine.NodeCards()[0]
	machine.Run(w, 0, card)

	socket := rapl.NewSocket(rapl.Config{Name: "cpu0", Seed: *seed})
	socket.Run(w, 0)

	gpu := nvml.NewDevice(nvml.K20Spec(), 0, *seed)
	gpu.Run(w, 0)
	lib := nvml.NewLibrary(gpu)
	lib.Init()

	phi := mic.New(mic.Config{Index: 0, Seed: *seed})
	phi.Run(w, 0)

	// Assemble the node and build every collector through the registry.
	var set core.DeviceSet
	set.Attach(bgq.EMONAPI.Key, card)
	set.Attach(rapl.MSR.Key, socket)
	set.Attach(nvml.API.Key, nvml.Target{Lib: lib})
	set.Attach(micras.Daemon.Key, micras.NewFS(phi))
	scopes := []string{"node card (32 nodes)", "socket", "board", "card"}
	names := []string{card.Name(), socket.Name(), "gpu0 (K20)", phi.Name()}

	cols, err := set.Collectors(core.DefaultRegistry)
	if err != nil {
		fmt.Fprintln(os.Stderr, "envtop:", err)
		os.Exit(1)
	}

	// Prime every mechanism once: energy-counter backends (MSR) emit power
	// only from the second read on.
	for _, col := range cols {
		if _, err := col.CollectInto(nil, 0); err != nil {
			fmt.Fprintln(os.Stderr, "envtop:", err)
			os.Exit(1)
		}
	}

	for now := *refresh; now <= *duration; now += *refresh {
		fmt.Printf("---- t = %v  (workload %s, phase %q) ----\n", now, w.Name(), w.PhaseAt(now))
		var rows [][]string
		for i, col := range cols {
			rs, err := col.CollectInto(nil, now)
			if err != nil {
				rows = append(rows, []string{names[i], col.Method(), "-", err.Error()})
				continue
			}
			power, detail := "-", scopes[i]
			for _, r := range rs {
				switch r.Cap {
				case powerCap:
					power = fmt.Sprintf("%.1f W", r.Value)
				case tempCap:
					detail = fmt.Sprintf("%s, %.0f degC", scopes[i], r.Value)
				}
			}
			rows = append(rows, []string{names[i], col.Method(), power, detail})
		}
		if err := report.Table(os.Stdout, []string{"Device", "Mechanism", "Power", "Scope"}, rows); err != nil {
			fmt.Fprintln(os.Stderr, "envtop:", err)
			os.Exit(1)
		}
		fmt.Println()
	}
}
