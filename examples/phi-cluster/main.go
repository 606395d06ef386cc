// phi-cluster reproduces the paper's Figure 8: the sum of power
// consumption of a Gaussian elimination workload offloaded to 128 Xeon Phi
// cards on a Stampede-shaped cluster.
//
// "Data generation takes place for about the first 100 seconds. After
// which, data is transferred to the cards and computation begins." The sum
// power curve shows the knee clearly. Each node's card is profiled through
// its own MICRAS daemon (the cheap on-card path); the cluster-wide sum
// folds deterministically.
//
// The closing section demonstrates clock-domain sharding: a per-node MonEQ
// job where every node rides its own clock domain and the whole partition
// steps concurrently on a worker pool, with byte-identical output to a
// serial run.
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"envmon/internal/cluster"
	"envmon/internal/core"
	"envmon/internal/micras"
	"envmon/internal/report"
	"envmon/internal/telemetry"
	"envmon/internal/trace"
	"envmon/internal/workload"
)

func main() {
	const cards = 128
	c, err := cluster.NewStampede(cards, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cluster: %s — %d nodes, 2 Sandy Bridge sockets + 1 Xeon Phi each\n\n", c.Name, len(c.Nodes))

	w := workload.PhiGauss(100*time.Second, 140*time.Second)
	// Real jobs never start in perfect lockstep across a machine.
	c.Run(w, 0, 50*time.Millisecond)

	times, watts := c.SumPhiSeries(0, 260*time.Second, time.Second)
	sum := trace.NewSeries(fmt.Sprintf("Sum Power (%d Phis)", cards), "W")
	for i := range times {
		sum.MustAppend(times[i], watts[i])
	}

	fmt.Println("sum of coprocessor power, as in Figure 8:")
	if err := report.Chart(os.Stdout, 100, 14, sum); err != nil {
		log.Fatal(err)
	}

	gen := sum.Clip(20*time.Second, 90*time.Second).MeanValue()
	compute := sum.Clip(130*time.Second, 230*time.Second).MeanValue()
	fmt.Printf("\ngeneration plateau: %.0f W (%.0f W/card — cards idle while hosts generate)\n", gen, gen/cards)
	fmt.Printf("compute plateau:    %.0f W (%.0f W/card)\n", compute, compute/cards)
	fmt.Printf("total energy over the window: %.1f MJ\n", sum.Energy()/1e6)

	// The paper ran 16 cards "in the interest of preserving allocation";
	// show that the 16-card run has the same shape.
	small, err := cluster.NewStampede(16, 42)
	if err != nil {
		log.Fatal(err)
	}
	small.Run(w, 0, 50*time.Millisecond)
	_, w16 := small.SumPhiSeries(0, 260*time.Second, time.Second)
	s16 := trace.NewSeries("Sum Power (16 Phis)", "W")
	for i := range times {
		s16.MustAppend(times[i], w16[i])
	}
	g16 := s16.Clip(20*time.Second, 90*time.Second).MeanValue()
	c16 := s16.Clip(130*time.Second, 230*time.Second).MeanValue()
	fmt.Printf("\n16-card control (the paper's actual allocation): knee ratio %.2f vs %.2f at 128 cards\n",
		c16/g16, compute/gen)

	// Clock-domain sharding: profile a fresh 16-node partition through
	// MonEQ with one clock domain per node. The domains advance on a
	// worker pool and the per-node CSVs come out byte-identical to a
	// serial run — determinism by construction, not by luck.
	profile := func(workers int) ([]byte, int) {
		part, err := cluster.NewStampede(16, 42)
		if err != nil {
			log.Fatal(err)
		}
		part.Run(w, 0, 50*time.Millisecond)
		d := part.Domains(0)
		bufs := make([]bytes.Buffer, len(part.Nodes))
		job, err := d.StartJob(cluster.DomainJobConfig{
			Backends: []core.BackendKey{micras.Daemon.Key},
			Output:   func(i int) io.Writer { return &bufs[i] },
		})
		if err != nil {
			log.Fatal(err)
		}
		d.AdvanceEpochs(5*time.Second, time.Second, workers, nil)
		rep, err := job.FinalizeAll()
		if err != nil {
			log.Fatal(err)
		}
		var all bytes.Buffer
		for i := range bufs {
			all.Write(bufs[i].Bytes())
		}
		return all.Bytes(), rep.Samples
	}
	serial, _ := profile(1)
	parallel, samples := profile(8)
	fmt.Printf("\nsharded MonEQ job: 16 nodes on 16 clock domains, 5 s at the daemon's 50 ms period\n")
	fmt.Printf("  %d samples; workers=8 output identical to workers=1: %v\n",
		samples, bytes.Equal(serial, parallel))

	// Aggregation layer: the same sharded job streams into a telemetry
	// store, one SetCursor per monitor after FinalizeAll, and the store
	// answers the cluster-wide question envmond serves remotely — which
	// nodes draw the most power.
	part, err := cluster.NewStampede(16, 42)
	if err != nil {
		log.Fatal(err)
	}
	part.Run(w, 0, 50*time.Millisecond)
	d := part.Domains(0)
	store := telemetry.New(telemetry.Options{Shards: 4})
	job, err := d.StartJob(cluster.DomainJobConfig{
		Backends: []core.BackendKey{micras.Daemon.Key},
		Output:   func(int) io.Writer { return io.Discard },
	})
	if err != nil {
		log.Fatal(err)
	}
	d.AdvanceEpochs(30*time.Second, time.Second, 8, nil)
	if _, err := job.FinalizeAll(); err != nil {
		log.Fatal(err)
	}
	for _, m := range job.Monitors() {
		if err := telemetry.NewSetCursor(store, m.Node(), m.Set()).Flush(); err != nil {
			log.Fatal(err)
		}
	}
	ranked, total := store.TopK(3, "", 0, 0, telemetry.Res1s)
	fmt.Printf("\ntelemetry store: %d series, %d samples; top power draws over the job:\n",
		store.NumSeries(), store.Samples())
	for i, np := range ranked {
		fmt.Printf("  %d. %-10s %.1f W mean\n", i+1, np.Node, np.Watts)
	}
	fmt.Printf("  cluster total: %.1f W mean across 16 nodes\n", total)
}
