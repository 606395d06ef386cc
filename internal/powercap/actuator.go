package powercap

import (
	"time"

	"envmon/internal/cluster"
)

// ClusterActuator turns a fleet cap in watts into the two knobs the
// simulated cluster exposes: a job-level duty-cycle factor on every node
// and, optionally, per-socket RAPL PKG limits. The cap-to-duty map is
// linear over the node's power envelope: capW/nodes at IdleW parks the
// jobs (factor 0), at NodeMaxW runs them flat out (factor 1).
//
// Apply must be called with the cluster's clock domains parked (an epoch
// barrier, or setup) — the same contract as cluster.SetThrottle.
type ClusterActuator struct {
	Cluster *cluster.Cluster
	// IdleW and NodeMaxW bound one node's draw for the duty map.
	IdleW    float64
	NodeMaxW float64
	// SocketCapFrac, when positive, also programs each socket's RAPL PKG
	// limit to this fraction of the per-node cap.
	SocketCapFrac float64

	applied  bool
	lastDuty float64
}

// Duty maps a fleet cap to the duty-cycle factor in [0, 1].
func (a *ClusterActuator) Duty(capW float64) float64 {
	n := len(a.Cluster.Nodes)
	if n == 0 || a.NodeMaxW <= a.IdleW {
		return 1
	}
	perNode := capW / float64(n)
	duty := (perNode - a.IdleW) / (a.NodeMaxW - a.IdleW)
	if duty < 0 {
		return 0
	}
	if duty > 1 {
		return 1
	}
	return duty
}

// Apply programs the cap. Unchanged duty factors are skipped so a steady
// controller does not grow every node's throttle schedule each epoch.
func (a *ClusterActuator) Apply(now time.Duration, capW float64) error {
	duty := a.Duty(capW)
	if a.applied && duty == a.lastDuty {
		return nil
	}
	if err := a.Cluster.SetThrottle(now, duty); err != nil {
		return err
	}
	if a.SocketCapFrac > 0 {
		perNode := capW / float64(len(a.Cluster.Nodes))
		if err := a.Cluster.SetSocketCaps(now, perNode*a.SocketCapFrac); err != nil {
			return err
		}
	}
	a.applied = true
	a.lastDuty = duty
	return nil
}
