package experiments

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"envmon/internal/cluster"
	"envmon/internal/core"
	"envmon/internal/micras"
	"envmon/internal/moneq"
	"envmon/internal/workload"
)

func init() {
	register("scale-domains", "Clock-domain sharding: per-node MonEQ collection stepped in parallel", runScaleDomains)
}

// runScaleDomains demonstrates the clock-domain sharding contract on a
// small Stampede partition: a per-node MonEQ job riding one clock domain
// per node produces byte-identical output whether the domains are stepped
// serially or on a worker pool. The paper collects per-node data with
// independent agents across thousands of nodes; this is the simulation's
// analogue, with determinism as the shape check.
func runScaleDomains(seed uint64) Result {
	const (
		nodes  = 16
		window = 500 * time.Millisecond
		epoch  = 100 * time.Millisecond
	)
	r := Result{
		ID:      "scale-domains",
		Title:   fmt.Sprintf("Sharded MonEQ job on %d Phi nodes, %v window", nodes, window),
		Headers: []string{"Workers", "Domains", "Polls/node", "Samples", "Identical to serial"},
	}
	run := func(workers int) (moneq.JobReport, []byte) {
		c, err := cluster.NewStampede(nodes, seed)
		if err != nil {
			panic(err)
		}
		c.Run(workload.PhiGauss(100*time.Millisecond, 300*time.Millisecond), 0, 10*time.Millisecond)
		d := c.Domains(0)
		bufs := make([]bytes.Buffer, nodes)
		job, err := d.StartJob(cluster.DomainJobConfig{
			Backends: []core.BackendKey{micras.Daemon.Key},
			Output:   func(i int) io.Writer { return &bufs[i] },
		})
		if err != nil {
			panic(err)
		}
		d.AdvanceEpochs(window, epoch, workers, nil)
		rep, err := job.FinalizeAll()
		if err != nil {
			panic(err)
		}
		var all bytes.Buffer
		for i := range bufs {
			all.Write(bufs[i].Bytes())
		}
		return rep, all.Bytes()
	}

	serialRep, serialOut := run(1)
	r.Rows = append(r.Rows, []string{"1", fmt.Sprint(nodes), fmt.Sprint(serialRep.PerNode[0].Polls),
		fmt.Sprint(serialRep.Samples), "(reference)"})
	allIdentical := true
	for _, workers := range []int{2, 8} {
		rep, out := run(workers)
		same := bytes.Equal(out, serialOut)
		allIdentical = allIdentical && same
		r.Rows = append(r.Rows, []string{fmt.Sprint(workers), fmt.Sprint(nodes),
			fmt.Sprint(rep.PerNode[0].Polls), fmt.Sprint(rep.Samples), fmt.Sprint(same)})
	}

	wantPolls := int(window / (50 * time.Millisecond)) // MICRAS SMC update period
	r.Checks = append(r.Checks,
		check("parallel stepping is byte-identical to serial", allIdentical,
			"per-node CSV concatenation compared across worker counts"),
		check("every node polls at the daemon's 50 ms period", serialRep.PerNode[0].Polls == wantPolls,
			"%d polls per node over %v, want %d", serialRep.PerNode[0].Polls, window, wantPolls),
		check("all nodes collected data", serialRep.Samples > 0 && serialRep.Nodes == nodes,
			"%d samples across %d nodes", serialRep.Samples, serialRep.Nodes),
	)
	r.Notes = append(r.Notes,
		"one clock domain per node; domains advance on a worker pool and synchronize at epoch barriers",
	)
	return r
}
