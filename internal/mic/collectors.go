package mic

import (
	"encoding/binary"
	"fmt"
	"time"

	"envmon/internal/core"
	"envmon/internal/ipmb"
	"envmon/internal/scif"
)

// SysMgmtPort is the privileged SCIF port of the card-side system
// management agent (Figure 6's "SysMgmt SCIF Interface").
const SysMgmtPort scif.PortID = 500

// SysMgmtService is the device-side agent servicing in-band queries. Each
// handled query wakes card cores for the handling window, which is why the
// paper finds that the API path "actually results in greater power
// consumption over idle" despite the consuming code running on the host.
type SysMgmtService struct {
	card *Card
	svc  *scif.Service
}

// StartSysMgmt registers the card's system management agent on the SCIF
// network at the card's node.
func StartSysMgmt(net *scif.Network, node scif.NodeID, card *Card) (*SysMgmtService, error) {
	s := &SysMgmtService{card: card}
	handling := InBandQueryCost - 10*time.Microsecond // transit margin
	svc, err := net.RegisterService(node, SysMgmtPort, func(start time.Duration, req []byte) ([]byte, time.Duration) {
		// The collection code runs on the card for the handling window.
		s.card.recordWake(start, start+handling)
		snap := s.card.SnapshotAt(start)
		return snap.Marshal(), handling
	})
	if err != nil {
		return nil, fmt.Errorf("mic: registering SysMgmt service: %w", err)
	}
	s.svc = svc
	return s, nil
}

// InBandCollector is the host-side SysMgmt API client (paper: the method
// "which uses the symmetric communication interface (SCIF) network and the
// capabilities designed into the coprocessor OS and the host driver").
type InBandCollector struct {
	net      *scif.Network
	svc      *SysMgmtService
	client   scif.NodeID
	queries  int
	lastDone time.Duration
}

// NewInBandCollector returns a collector calling the card's SysMgmt agent
// from the host node.
func NewInBandCollector(net *scif.Network, svc *SysMgmtService) *InBandCollector {
	return &InBandCollector{net: net, svc: svc, client: scif.HostNode}
}

// Platform implements core.Collector.
func (c *InBandCollector) Platform() core.Platform { return core.XeonPhi }

// Method implements core.Collector.
func (c *InBandCollector) Method() string { return "SysMgmt API" }

// Cost implements core.Collector.
func (c *InBandCollector) Cost() time.Duration { return InBandQueryCost }

// MinInterval implements core.Collector: the SMC refreshes every 50 ms,
// but a 14.2 ms query cost makes anything faster than ~50 ms polling
// pathological.
func (c *InBandCollector) MinInterval() time.Duration { return SMCUpdatePeriod }

// Queries reports how many Collect calls have been made.
func (c *InBandCollector) Queries() int { return c.queries }

// LastDone reports the completion time of the most recent query — the
// caller should advance its clock to at least this point.
func (c *InBandCollector) LastDone() time.Duration { return c.lastDone }

// CollectInto implements core.Collector via a full SCIF RPC round trip.
// The SCIF transport itself
// allocates response frames; the reading conversion is allocation-free.
func (c *InBandCollector) CollectInto(buf []core.Reading, now time.Duration) ([]core.Reading, error) {
	c.queries++
	resp, done, err := c.net.Call(c.client, c.svc.svc, now, []byte{CmdGetSnapshot})
	if err != nil {
		return buf[:0], fmt.Errorf("mic: in-band collect: %w", err)
	}
	c.lastDone = done
	snap, err := UnmarshalSnapshot(resp)
	if err != nil {
		return buf[:0], err
	}
	return appendSnapshotReadings(buf[:0], snap, done), nil
}

// DirectSnapshot exposes the raw RPC for tests and tools; it returns the
// snapshot and the completion time.
func (c *InBandCollector) DirectSnapshot(now time.Duration) (Snapshot, time.Duration, error) {
	resp, done, err := c.net.Call(c.client, c.svc.svc, now, []byte{CmdGetSnapshot})
	if err != nil {
		return Snapshot{}, done, err
	}
	snap, err := UnmarshalSnapshot(resp)
	return snap, done, err
}

// appendSnapshotReadings converts an SMC snapshot into vendor-neutral
// readings appended to buf.
func appendSnapshotReadings(buf []core.Reading, s Snapshot, at time.Duration) []core.Reading {
	return append(buf,
		core.Reading{Cap: core.Capability{Component: core.Total, Metric: core.Power}, Value: float64(s.PowerMW) / 1000, Unit: "W", Time: at},
		core.Reading{Cap: core.Capability{Component: core.Die, Metric: core.Temperature}, Value: float64(s.DieCx10) / 10, Unit: "degC", Time: at},
		core.Reading{Cap: core.Capability{Component: core.DDR, Metric: core.Temperature}, Value: float64(s.GDDRCx10) / 10, Unit: "degC", Time: at},
		core.Reading{Cap: core.Capability{Component: core.Intake, Metric: core.Temperature}, Value: float64(s.IntakeCx10) / 10, Unit: "degC", Time: at},
		core.Reading{Cap: core.Capability{Component: core.Exhaust, Metric: core.Temperature}, Value: float64(s.ExhaustCx10) / 10, Unit: "degC", Time: at},
		core.Reading{Cap: core.Capability{Component: core.Fan, Metric: core.FanSpeed}, Value: float64(s.FanRPM), Unit: "RPM", Time: at},
		core.Reading{Cap: core.Capability{Component: core.Processor, Metric: core.Voltage}, Value: float64(s.CoreMV) / 1000, Unit: "V", Time: at},
		core.Reading{Cap: core.Capability{Component: core.Memory, Metric: core.Voltage}, Value: float64(s.MemMV) / 1000, Unit: "V", Time: at},
		core.Reading{Cap: core.Capability{Component: core.Memory, Metric: core.MemoryUsed}, Value: float64(s.UsedMB) * (1 << 20), Unit: "B", Time: at},
		core.Reading{Cap: core.Capability{Component: core.Memory, Metric: core.MemoryFree}, Value: float64(s.TotalMB-s.UsedMB) * (1 << 20), Unit: "B", Time: at},
		core.Reading{Cap: core.Capability{Component: core.Processor, Metric: core.Frequency}, Value: float64(s.CoreMHz) * 1e6, Unit: "Hz", Time: at},
		core.Reading{Cap: core.Capability{Component: core.Memory, Metric: core.MemorySpeed}, Value: float64(s.MemKTps), Unit: "kT/s", Time: at},
	)
}

// OOBCollector is the out-of-band path: BMC queries over IPMB. Slow (the
// I²C bus dominates) but invisible to the card's compute resources.
type OOBCollector struct {
	bmc      *ipmb.BMC
	addr     byte
	queries  int
	lastDone time.Duration
}

// OOBQueryCost is the nominal full-snapshot transaction time: request
// frame + SMC handling + 36-byte response frame on a 100 kHz bus.
const OOBQueryCost = 4500 * time.Microsecond

// NewOOBCollector returns a collector querying the SMC at the given slave
// address through the platform BMC.
func NewOOBCollector(bmc *ipmb.BMC, smcAddr byte) *OOBCollector {
	return &OOBCollector{bmc: bmc, addr: smcAddr}
}

// Platform implements core.Collector.
func (c *OOBCollector) Platform() core.Platform { return core.XeonPhi }

// Method implements core.Collector.
func (c *OOBCollector) Method() string { return "SMC/IPMB out-of-band" }

// Cost implements core.Collector.
func (c *OOBCollector) Cost() time.Duration { return OOBQueryCost }

// MinInterval implements core.Collector: bounded by the SMC refresh.
func (c *OOBCollector) MinInterval() time.Duration { return SMCUpdatePeriod }

// Queries reports how many Collect calls have been made.
func (c *OOBCollector) Queries() int { return c.queries }

// LastDone reports the completion time of the most recent transaction.
func (c *OOBCollector) LastDone() time.Duration { return c.lastDone }

// CollectInto implements core.Collector with a single snapshot
// transaction.
func (c *OOBCollector) CollectInto(buf []core.Reading, now time.Duration) ([]core.Reading, error) {
	c.queries++
	data, done, err := c.bmc.Query(now, c.addr, ipmb.NetFnOEM, CmdGetSnapshot, nil)
	if err != nil {
		return buf[:0], fmt.Errorf("mic: out-of-band collect: %w", err)
	}
	c.lastDone = done
	if len(data) < 1 || data[0] != ipmb.CompletionOK {
		return buf[:0], fmt.Errorf("mic: SMC completion code %#x", data[0])
	}
	snap, err := UnmarshalSnapshot(data[1:])
	if err != nil {
		return buf[:0], err
	}
	return appendSnapshotReadings(buf[:0], snap, done), nil
}

// PowerMilliwatts is a convenience for the single-value out-of-band power
// query (CmdGetPower).
func (c *OOBCollector) PowerMilliwatts(now time.Duration) (uint32, time.Duration, error) {
	data, done, err := c.bmc.Query(now, c.addr, ipmb.NetFnOEM, CmdGetPower, nil)
	if err != nil {
		return 0, done, err
	}
	if len(data) != 5 || data[0] != ipmb.CompletionOK {
		return 0, done, fmt.Errorf("mic: bad GetPower response %v", data)
	}
	return binary.LittleEndian.Uint32(data[1:]), done, nil
}
