package cluster

import (
	"envmon/internal/core"
	"envmon/internal/mic"
	"envmon/internal/micras"
	"envmon/internal/resilience"
)

// ChainSpec declares one fallback chain: when a node carries the primary
// backend, the listed fallback backends (those the node also carries, in
// order) are folded behind it instead of being polled as top-level
// collectors.
type ChainSpec struct {
	Primary   core.BackendKey
	Fallbacks []core.BackendKey
}

// DefaultChains mirrors the paper's degraded-mode path on the nodes a
// cluster builds: the Xeon Phi in-band SysMgmt API — the fast path through
// the SCIF network — falls back to the MICRAS daemon's pseudo-file, which
// stays readable when the in-band agent is down (at daemon granularity and
// cost).
func DefaultChains() []ChainSpec {
	return []ChainSpec{{Primary: mic.InBand.Key, Fallbacks: []core.BackendKey{micras.Daemon.Key}}}
}

// buildResilient builds one node's collectors through reg and folds them
// into resilience chains: every collector is wrapped with the policy's
// retry + breaker, and a collector whose key is a chain fallback of an
// attached primary is consumed into that primary's chain rather than
// polled on its own. Build order is attach order, so output series order
// is unchanged from the plain path (minus the consumed fallbacks).
//
// Fallbacks reuse the already-built collector of the fallback attachment —
// important for the MICRAS path, where building a second collector for the
// same card would find the daemon busy.
func buildResilient(n *Node, reg *core.Registry, policy resilience.Policy, chains []ChainSpec, backends []core.BackendKey) ([]core.Collector, []*resilience.Collector, error) {
	want := make(map[core.BackendKey]bool, len(backends))
	for _, k := range backends {
		want[k] = true
	}
	attachments := n.Devices().Attachments()
	// Build every selected attachment once, in attach order, keeping keys.
	type built struct {
		key core.BackendKey
		col core.Collector
	}
	var cols []built
	for _, a := range attachments {
		if len(backends) > 0 && !want[a.Key] {
			continue
		}
		c, err := reg.Build(a.Key, a.Target)
		if err != nil {
			return nil, nil, err
		}
		cols = append(cols, built{key: a.Key, col: c})
	}
	// Mark which built collectors are consumed as fallbacks. A collector
	// serves at most one chain: the first primary (in attach order) that
	// claims it wins, and a primary never consumes itself or another
	// primary's slot.
	consumed := make([]bool, len(cols))
	fallbacksOf := make([][]core.Collector, len(cols))
	specByPrimary := make(map[core.BackendKey]ChainSpec, len(chains))
	for _, cs := range chains {
		specByPrimary[cs.Primary] = cs
	}
	for i, b := range cols {
		spec, isPrimary := specByPrimary[b.key]
		if !isPrimary || consumed[i] {
			continue
		}
		for _, fk := range spec.Fallbacks {
			for j, fb := range cols {
				if j == i || consumed[j] || fb.key != fk {
					continue
				}
				if _, alsoPrimary := specByPrimary[fb.key]; alsoPrimary {
					continue
				}
				fallbacksOf[i] = append(fallbacksOf[i], fb.col)
				consumed[j] = true
				break // one instance per fallback key
			}
		}
	}
	out := make([]core.Collector, 0, len(cols))
	var rcs []*resilience.Collector
	for i, b := range cols {
		if consumed[i] {
			continue
		}
		rc := resilience.New(policy, b.col, fallbacksOf[i]...)
		out = append(out, rc)
		rcs = append(rcs, rc)
	}
	return out, rcs, nil
}
