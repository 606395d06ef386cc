package moneq

import (
	"fmt"
	"io"
	"time"

	"envmon/internal/core"
)

// Job profiles a whole MPI-style job: one Monitor per node (on BG/Q, per
// node card — "the local agent rank on a node card" owns collection),
// sharing one interval. Nodes share the job clock by default; a NodeSpec
// may pin its monitor to its own clock domain instead, which is how the
// cluster layer steps per-node collection concurrently. It packages the
// pattern the paper's Table III measures and the full-Mira scale test
// exercises.
type Job struct {
	monitors []*Monitor
	clock    core.Clock
}

// NodeSpec describes one node's collection setup within a job.
type NodeSpec struct {
	Node string // location name for output metadata
	Rank int    // the collecting agent rank
	// Collectors for this node's devices.
	Collectors []core.Collector
	// Output receives the node's CSV at FinalizeAll (may be nil).
	Output io.Writer
	// Clock, when non-nil, binds this node's monitor to its own clock
	// domain instead of the job clock. All per-node clocks must be kept in
	// step with each other (simclock.Group does this) so the aggregate
	// report's runtimes line up.
	Clock core.Clock
}

// StartJob initializes a monitor on every node. NumTasks for the overhead
// model is the total rank count, shared by all nodes. On any error the
// already-started monitors are finalized and the error returned.
func StartJob(clock core.Clock, interval time.Duration, numTasks int, nodes []NodeSpec) (*Job, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("moneq: job has no nodes")
	}
	j := &Job{clock: clock}
	for _, spec := range nodes {
		nodeClock := clock
		if spec.Clock != nil {
			nodeClock = spec.Clock
		}
		m, err := Initialize(Config{
			Clock:    nodeClock,
			Interval: interval,
			Node:     spec.Node,
			Rank:     spec.Rank,
			NumTasks: numTasks,
			Output:   spec.Output,
		}, spec.Collectors...)
		if err != nil {
			for _, started := range j.monitors {
				_, _ = started.Finalize()
			}
			return nil, fmt.Errorf("moneq: node %s: %w", spec.Node, err)
		}
		j.monitors = append(j.monitors, m)
	}
	return j, nil
}

// Monitors exposes the per-node monitors in node order.
func (j *Job) Monitors() []*Monitor { return j.monitors }

// StartTagAll opens a tag on every node (a job-wide phase marker).
func (j *Job) StartTagAll(name string) {
	for _, m := range j.monitors {
		m.StartTag(name)
	}
}

// EndTagAll closes a job-wide tag; the first error wins but all nodes are
// attempted.
func (j *Job) EndTagAll(name string) error {
	var first error
	for _, m := range j.monitors {
		if err := m.EndTag(name); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// JobReport aggregates per-node reports.
type JobReport struct {
	Nodes      int
	PerNode    []Report
	Polls      int           // total across nodes
	Samples    int           // total across nodes
	MaxTotal   time.Duration // slowest node's MonEQ cost (the job-visible overhead)
	AppRuntime time.Duration
}

// OverheadFraction is the job-visible overhead: the slowest node's cost
// over the runtime (all nodes run concurrently).
func (r JobReport) OverheadFraction() float64 {
	if r.AppRuntime <= 0 {
		return 0
	}
	return r.MaxTotal.Seconds() / r.AppRuntime.Seconds()
}

// FinalizeAll stops every node's monitor and aggregates the reports.
func (j *Job) FinalizeAll() (JobReport, error) {
	out := JobReport{Nodes: len(j.monitors)}
	for _, m := range j.monitors {
		rep, err := m.Finalize()
		if err != nil {
			return out, err
		}
		out.PerNode = append(out.PerNode, rep)
		out.Polls += rep.Polls
		out.Samples += rep.Samples
		if rep.TotalCost > out.MaxTotal {
			out.MaxTotal = rep.TotalCost
		}
		if rep.AppRuntime > out.AppRuntime {
			out.AppRuntime = rep.AppRuntime
		}
	}
	return out, nil
}
