package mic

import (
	"encoding/binary"
	"fmt"
	"time"

	"envmon/internal/ipmb"
)

// Snapshot is one generation of the card's environmental data, as assembled
// by the SMC. It is the payload both the in-band SysMgmt path and the
// out-of-band IPMB path serve.
type Snapshot struct {
	PowerMW     uint32
	DieCx10     uint16 // temperature in tenths of a degree C
	GDDRCx10    uint16
	IntakeCx10  uint16
	ExhaustCx10 uint16
	FanRPM      uint16
	CoreMV      uint16
	MemMV       uint16
	UsedMB      uint32
	TotalMB     uint32
	CoreMHz     uint16
	MemKTps     uint16
}

const snapshotSize = 4 + 2*7 + 4 + 4 + 2 + 2 // 28 bytes

// Marshal encodes the snapshot in little-endian fixed layout.
func (s Snapshot) Marshal() []byte {
	b := make([]byte, snapshotSize)
	binary.LittleEndian.PutUint32(b[0:], s.PowerMW)
	binary.LittleEndian.PutUint16(b[4:], s.DieCx10)
	binary.LittleEndian.PutUint16(b[6:], s.GDDRCx10)
	binary.LittleEndian.PutUint16(b[8:], s.IntakeCx10)
	binary.LittleEndian.PutUint16(b[10:], s.ExhaustCx10)
	binary.LittleEndian.PutUint16(b[12:], s.FanRPM)
	binary.LittleEndian.PutUint16(b[14:], s.CoreMV)
	binary.LittleEndian.PutUint16(b[16:], s.MemMV)
	binary.LittleEndian.PutUint32(b[18:], s.UsedMB)
	binary.LittleEndian.PutUint32(b[22:], s.TotalMB)
	binary.LittleEndian.PutUint16(b[26:], s.CoreMHz)
	// MemKTps shares the last slot layout; extend the buffer.
	b = append(b, 0, 0)
	binary.LittleEndian.PutUint16(b[28:], s.MemKTps)
	return b
}

// UnmarshalSnapshot decodes a snapshot.
func UnmarshalSnapshot(b []byte) (Snapshot, error) {
	if len(b) < snapshotSize+2 {
		return Snapshot{}, fmt.Errorf("mic: snapshot too short: %d bytes", len(b))
	}
	return Snapshot{
		PowerMW:     binary.LittleEndian.Uint32(b[0:]),
		DieCx10:     binary.LittleEndian.Uint16(b[4:]),
		GDDRCx10:    binary.LittleEndian.Uint16(b[6:]),
		IntakeCx10:  binary.LittleEndian.Uint16(b[8:]),
		ExhaustCx10: binary.LittleEndian.Uint16(b[10:]),
		FanRPM:      binary.LittleEndian.Uint16(b[12:]),
		CoreMV:      binary.LittleEndian.Uint16(b[14:]),
		MemMV:       binary.LittleEndian.Uint16(b[16:]),
		UsedMB:      binary.LittleEndian.Uint32(b[18:]),
		TotalMB:     binary.LittleEndian.Uint32(b[22:]),
		CoreMHz:     binary.LittleEndian.Uint16(b[26:]),
		MemKTps:     binary.LittleEndian.Uint16(b[28:]),
	}, nil
}

// SnapshotAt assembles the current SMC generation at simulated time t.
// Reads must use non-decreasing t (the SMC grid advances monotonically).
func (c *Card) SnapshotAt(t time.Duration) Snapshot {
	powerW := c.TotalPower(t)
	die, gddr, intake, exhaust := c.Temperatures(t)
	total, used, _ := c.MemoryUsage(t)
	return Snapshot{
		PowerMW:     uint32(powerW * 1000),
		DieCx10:     uint16(die * 10),
		GDDRCx10:    uint16(gddr * 10),
		IntakeCx10:  uint16(intake * 10),
		ExhaustCx10: uint16(exhaust * 10),
		FanRPM:      uint16(c.fan.RPM(die)),
		CoreMV:      uint16(CoreVoltage * 1000),
		MemMV:       uint16(MemVoltage * 1000),
		UsedMB:      uint32(used >> 20),
		TotalMB:     uint32(total >> 20),
		CoreMHz:     uint16(c.CoreFrequencyMHz(t)),
		MemKTps:     uint16(MemSpeedKTps),
	}
}

// --- Out-of-band: the SMC as an IPMB responder --------------------------------

// SMC command set (OEM network function).
const (
	CmdGetDieTemp  = 0x02
	CmdGetGDDRTemp = 0x03
	CmdGetFanRPM   = 0x06
	CmdGetSnapshot = 0x0A
)

// smcHandlingTime is the SMC microcontroller's per-command latency.
const smcHandlingTime = 400 * time.Microsecond

// SMC is the card's System Management Controller as seen from the IPMB bus.
// It implements ipmb.Responder. Out-of-band queries read the same SMC
// registers but consume no card compute resources — no wake windows, no
// daemon contention.
type SMC struct {
	card *Card
	addr byte
}

// SMCAddrBase is mic0's SMC slave address; card i responds at base + 2i.
const SMCAddrBase = 0x30

// SMC returns the card's management controller endpoint.
func (c *Card) SMC(index int) *SMC {
	return &SMC{card: c, addr: byte(SMCAddrBase + 2*index)}
}

// SlaveAddr implements ipmb.Responder.
func (s *SMC) SlaveAddr() byte { return s.addr }

// Handle implements ipmb.Responder.
func (s *SMC) Handle(now time.Duration, req ipmb.Message) ([]byte, time.Duration) {
	if req.NetFn != ipmb.NetFnOEM {
		return []byte{ipmb.CompletionInvalidCommand}, smcHandlingTime
	}
	snap := s.card.SnapshotAt(now)
	switch req.Cmd {
	case CmdGetDieTemp:
		var b [3]byte
		b[0] = ipmb.CompletionOK
		binary.LittleEndian.PutUint16(b[1:], snap.DieCx10)
		return b[:], smcHandlingTime
	case CmdGetGDDRTemp:
		var b [3]byte
		b[0] = ipmb.CompletionOK
		binary.LittleEndian.PutUint16(b[1:], snap.GDDRCx10)
		return b[:], smcHandlingTime
	case CmdGetFanRPM:
		var b [3]byte
		b[0] = ipmb.CompletionOK
		binary.LittleEndian.PutUint16(b[1:], snap.FanRPM)
		return b[:], smcHandlingTime
	case CmdGetSnapshot:
		return append([]byte{ipmb.CompletionOK}, snap.Marshal()...), smcHandlingTime
	default:
		return []byte{ipmb.CompletionInvalidCommand}, smcHandlingTime
	}
}
