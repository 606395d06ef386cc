package nvml

import (
	"fmt"

	"envmon/internal/core"
)

// API is the NVML library: 1.3 ms per collection (paper, II.C), and the
// board power sensor refreshes every ~60 ms, so polling faster returns
// duplicates.
var API = core.Mechanism{
	Key:      core.BackendKey{Platform: core.NVML, Method: "NVML"},
	PerQuery: QueryCost,
	Interval: PowerUpdatePeriod,
}

// Target selects one device index of an initialized library.
type Target struct {
	Lib   *Library
	Index int
}

func init() {
	core.Register(API.Key, func(target any) (core.Collector, error) {
		t, ok := target.(Target)
		if !ok {
			return nil, fmt.Errorf("%w: NVML wants nvml.Target, got %T", core.ErrBadTarget, target)
		}
		return NewCollector(t.Lib, t.Index)
	})
}
