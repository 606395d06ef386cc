package cluster

import (
	"fmt"
	"time"

	"envmon/internal/workload"
)

// Throttle hooks: the actuation surface the power-capping control plane
// (internal/powercap) commands. It is one mechanism, job-level
// duty-cycling: every workload a node runs is wrapped in the node's
// workload.Throttle schedule, so SetThrottle slows the job on every device
// — the scheduler-level knob that works on hardware with no capping
// interface (the stack models each vendor mechanism as the read path the
// paper prices).
//
// A throttle step is timestamped with the simulated instant it takes
// effect; history before that instant is immutable, so lazily-integrated
// energy counters replay identically no matter when they are read.

// throttleSched returns the node's duty-cycle schedule, creating it on
// first use. Callers are the setup path and epoch-barrier callbacks —
// never concurrent with each other.
func (n *Node) throttleSched() *workload.Throttle {
	if n.throttle == nil {
		n.throttle = workload.NewThrottle()
	}
	return n.throttle
}

// SetThrottle sets the node's duty-cycle factor from simulated time at
// onward: 1 is full speed, 0 parks every job at idle. It applies to the
// jobs the node is already running and to every job started later. Call
// with the node's clock domain parked (setup, or an epoch barrier).
func (n *Node) SetThrottle(at time.Duration, factor float64) error {
	if err := n.throttleSched().Set(at, factor); err != nil {
		return fmt.Errorf("cluster: node %s: %w", n.Name, err)
	}
	return nil
}

// ThrottleSteps reports how many steps the node's duty-cycle schedule
// holds — an append-only schedule, so a control loop can check its
// no-op-skipping keeps the schedule bounded.
func (n *Node) ThrottleSteps() int {
	if n.throttle == nil {
		return 0
	}
	return n.throttle.Steps()
}

// ThrottleAt reports the node's duty-cycle factor at simulated time t.
func (n *Node) ThrottleAt(t time.Duration) float64 {
	if n.throttle == nil {
		return 1
	}
	return n.throttle.At(t)
}

// SetThrottle sets the duty-cycle factor on every node from simulated time
// at onward — the fleet-wide actuation a machine power budget commands.
// Nodes are walked in order, so the call is deterministic. Call with every
// clock domain parked (an epoch barrier).
func (c *Cluster) SetThrottle(at time.Duration, factor float64) error {
	for _, n := range c.Nodes {
		if err := n.SetThrottle(at, factor); err != nil {
			return err
		}
	}
	return nil
}
