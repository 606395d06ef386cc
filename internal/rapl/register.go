package rapl

import (
	"fmt"
	"time"

	"envmon/internal/core"
	"envmon/internal/msr"
)

// MSR is RAPL read through the Linux MSR driver: ~0.03 ms per query
// (paper, II.B), and the paper concludes RAPL is "relatively accurate for
// data collection at about 60ms"; faster polling aliases the jittered
// counter updates.
var MSR = core.Mechanism{
	Key:      core.BackendKey{Platform: core.RAPL, Method: "MSR"},
	PerQuery: msr.ReadCost,
	Interval: 60 * time.Millisecond,
}

// Perf is RAPL read through perf_event: the modeled syscall cost, at the
// same counter cadence as the MSR path.
var Perf = core.Mechanism{
	Key:      core.BackendKey{Platform: core.RAPL, Method: "perf"},
	PerQuery: PerfReadCost,
	Interval: MSR.Interval,
}

func init() {
	core.Register(MSR.Key, func(target any) (core.Collector, error) {
		s, ok := target.(*Socket)
		if !ok {
			return nil, fmt.Errorf("%w: RAPL/MSR wants *rapl.Socket, got %T", core.ErrBadTarget, target)
		}
		return openMSR(s)
	})
	core.Register(Perf.Key, func(target any) (core.Collector, error) {
		s, ok := target.(*Socket)
		if !ok {
			return nil, fmt.Errorf("%w: RAPL/perf wants *rapl.Socket, got %T", core.ErrBadTarget, target)
		}
		return NewPerfReader(s, 0), nil
	})
}

// openMSR loads the MSR driver on the socket, opens cpu 0 as root, and
// decodes the unit register at time zero — the stack every call site used
// to assemble by hand.
func openMSR(s *Socket) (*MSRCollector, error) {
	drv := s.Driver(1)
	drv.Load()
	dev, err := drv.Open(0, msr.Root)
	if err != nil {
		return nil, err
	}
	return NewMSRCollector(dev, 0)
}
