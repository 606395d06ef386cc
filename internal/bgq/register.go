package bgq

import (
	"fmt"

	"envmon/internal/core"
)

// EMONAPI is the BG/Q environmental monitoring API: 1.10 ms per collection
// (paper, II.A), and EMON produces a new generation every 560 ms — the
// "lowest polling interval possible" on BG/Q.
var EMONAPI = core.Mechanism{
	Key:      core.BackendKey{Platform: core.BlueGeneQ, Method: "EMON"},
	PerQuery: EMONReadCost,
	Interval: EMONGeneration,
}

func init() {
	core.Register(EMONAPI.Key, func(target any) (core.Collector, error) {
		nc, ok := target.(*NodeCard)
		if !ok {
			return nil, fmt.Errorf("%w: BG/Q EMON wants *bgq.NodeCard, got %T", core.ErrBadTarget, target)
		}
		return nc.EMON(), nil
	})
}
