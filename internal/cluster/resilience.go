package cluster

import (
	"slices"

	"envmon/internal/core"
	"envmon/internal/mic"
	"envmon/internal/micras"
	"envmon/internal/resilience"
)

// buildResilient builds one node's collectors through reg, in attach
// order, and wraps each with the policy's retry + breaker. It folds the
// paper's one degraded-mode path, the only chain a cluster node carries
// both ends of: the Xeon Phi in-band SysMgmt API — the fast path through
// the SCIF network — falls back to the MICRAS daemon's pseudo-file, which
// stays readable when the in-band agent is down (at daemon granularity and
// cost). When both are built, the first MICRAS daemon collector goes
// behind the first in-band collector and is not polled on its own, so
// output series order is the plain path's minus that collector.
//
// The fallback is the already-built collector of the MICRAS attachment —
// important, since building a second collector for the same card would
// find the daemon busy.
func buildResilient(n *Node, reg *core.Registry, policy resilience.Policy, backends []core.BackendKey) ([]core.Collector, []*resilience.Collector, error) {
	var keys []core.BackendKey
	var cols []core.Collector
	for _, a := range n.Devices().Attachments() {
		if len(backends) > 0 && !slices.Contains(backends, a.Key) {
			continue
		}
		c, err := reg.Build(a.Key, a.Target)
		if err != nil {
			return nil, nil, err
		}
		keys = append(keys, a.Key)
		cols = append(cols, c)
	}
	primary, fallback := slices.Index(keys, mic.InBand.Key), slices.Index(keys, micras.Daemon.Key)
	if primary < 0 || fallback < 0 {
		primary, fallback = -1, -1
	}
	out := make([]core.Collector, 0, len(cols))
	rcs := make([]*resilience.Collector, 0, len(cols))
	for i, c := range cols {
		var rc *resilience.Collector
		switch i {
		case fallback:
			continue
		case primary:
			rc = resilience.New(policy, c, cols[fallback])
		default:
			rc = resilience.New(policy, c)
		}
		out = append(out, rc)
		rcs = append(rcs, rc)
	}
	return out, rcs, nil
}
