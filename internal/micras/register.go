package micras

import (
	"fmt"

	"envmon/internal/core"
	"envmon/internal/mic"
)

// Daemon is the Xeon Phi MICRAS daemon's pseudo-files: ~0.04 ms per query
// (paper, II.D); the files re-render per read but the underlying SMC
// registers refresh every 50 ms.
var Daemon = core.Mechanism{
	Key:      core.BackendKey{Platform: core.XeonPhi, Method: "MICRAS daemon"},
	PerQuery: mic.DaemonQueryCost,
	Interval: mic.SMCUpdatePeriod,
}

func init() {
	core.Register(Daemon.Key, func(target any) (core.Collector, error) {
		fs, ok := target.(*FS)
		if !ok {
			return nil, fmt.Errorf("%w: MICRAS wants *micras.FS, got %T", core.ErrBadTarget, target)
		}
		return NewCollector(fs), nil
	})
}
