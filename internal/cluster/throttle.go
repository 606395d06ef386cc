package cluster

import (
	"fmt"
	"time"

	"envmon/internal/rapl"
	"envmon/internal/workload"
)

// Throttle hooks: the actuation surface the power-capping control plane
// (internal/powercap) commands. Two mechanisms compose, mirroring how a
// real facility caps a node:
//
//   - Job-level duty-cycling: every workload a node runs is wrapped in the
//     node's workload.Throttle schedule, so SetThrottle slows the job on
//     every device — the scheduler-level knob that works on hardware with
//     no capping interface (the paper's NVML and MICRAS mechanisms are
//     read-only).
//   - RAPL-style per-socket caps: SetSocketCaps programs a PKG power limit
//     into each socket's limit MSR, the hardware-enforced knob the RAPL
//     simulation honors by clamping physical draw.
//
// Both are timestamped with the simulated instant they take effect;
// history before that instant is immutable, so lazily-integrated energy
// counters replay identically no matter when they are read.

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

// SetSocketCaps programs a RAPL PKG power limit of watts on every socket
// the node carries, effective from simulated time at. Nodes without
// sockets are a no-op. Call with the node's clock domain parked.
func (n *Node) SetSocketCaps(at time.Duration, watts float64) {
	for _, s := range n.Sockets {
		s.SetPowerLimitAt(rapl.PKG, at, watts)
	}
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

// SetSocketCaps programs a per-socket RAPL PKG limit on every node's
// sockets, effective from simulated time at.
func (c *Cluster) SetSocketCaps(at time.Duration, watts float64) {
	for _, n := range c.Nodes {
		n.SetSocketCaps(at, watts)
	}
}
