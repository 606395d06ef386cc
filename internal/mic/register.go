package mic

import (
	"fmt"

	"envmon/internal/core"
	"envmon/internal/ipmb"
	"envmon/internal/scif"
)

// InBandTarget wires the host-side SysMgmt API client: the SCIF network
// plus the card's registered management agent.
type InBandTarget struct {
	Net *scif.Network
	Svc *SysMgmtService
}

// OOBTarget wires the out-of-band path: the platform BMC plus the SMC
// slave address to query.
type OOBTarget struct {
	BMC     *ipmb.BMC
	SMCAddr byte
}

// InBand is the Xeon Phi SysMgmt API over SCIF: 14.2 ms per query (paper,
// II.D). The SMC refreshes every 50 ms, and a 14.2 ms query cost makes
// anything faster pathological.
var InBand = core.Mechanism{
	Key:      core.BackendKey{Platform: core.XeonPhi, Method: "SysMgmt API"},
	PerQuery: InBandQueryCost,
	Interval: SMCUpdatePeriod,
}

// OOB is the out-of-band path, BMC queries of the SMC over IPMB, bounded by
// the SMC refresh.
var OOB = core.Mechanism{
	Key:      core.BackendKey{Platform: core.XeonPhi, Method: "SMC/IPMB out-of-band"},
	PerQuery: OOBQueryCost,
	Interval: SMCUpdatePeriod,
}

func init() {
	core.Register(InBand.Key, func(target any) (core.Collector, error) {
		t, ok := target.(InBandTarget)
		if !ok {
			return nil, fmt.Errorf("%w: SysMgmt API wants mic.InBandTarget, got %T", core.ErrBadTarget, target)
		}
		return NewInBandCollector(t.Net, t.Svc), nil
	})
	core.Register(OOB.Key, func(target any) (core.Collector, error) {
		t, ok := target.(OOBTarget)
		if !ok {
			return nil, fmt.Errorf("%w: SMC/IPMB wants mic.OOBTarget, got %T", core.ErrBadTarget, target)
		}
		return NewOOBCollector(t.BMC, t.SMCAddr), nil
	})
}
