package mic

import (
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"envmon/internal/core"
	"envmon/internal/ipmb"
	"envmon/internal/scif"
	"envmon/internal/workload"
)

func TestCardNameAndFan(t *testing.T) {
	c := New(Config{Index: 3, Seed: 1})
	if c.Name() != "mic3" {
		t.Errorf("Name = %q", c.Name())
	}
	c.Run(workload.PhiGauss(10*time.Second, 120*time.Second), 0)
	cold := c.SnapshotAt(time.Second).FanRPM
	hot := c.SnapshotAt(2 * time.Minute).FanRPM
	if hot < cold {
		t.Errorf("fan slowed under load: %d -> %d RPM", cold, hot)
	}
	if cold < 1200 || hot > 3600 {
		t.Errorf("fan out of range: %d..%d", cold, hot)
	}
}

func TestCollectorIdentities(t *testing.T) {
	net := scif.NewNetwork(1)
	card := newCard()
	svc, err := StartSysMgmt(net, 1, card)
	if err != nil {
		t.Fatal(err)
	}
	in := NewInBandCollector(net, svc)
	if in.Cost() != InBandQueryCost || in.MinInterval() != SMCUpdatePeriod {
		t.Error("in-band cost/interval wrong")
	}

	bus := ipmb.NewBus()
	smc := card.SMC(0)
	bus.Attach(smc)
	oob := NewOOBCollector(ipmb.NewBMC(bus), smc.SlaveAddr())
	if oob.Platform() != core.XeonPhi || oob.Method() != "SMC/IPMB out-of-band" {
		t.Error("OOB identity wrong")
	}
	if oob.Cost() != OOBQueryCost || oob.MinInterval() != SMCUpdatePeriod {
		t.Error("OOB cost/interval wrong")
	}
	if oob.Queries() != 0 {
		t.Error("fresh OOB queries != 0")
	}
}

func TestSMCIndividualCommands(t *testing.T) {
	bus := ipmb.NewBus()
	card := newCard()
	card.Run(workload.NoopKernel(time.Minute), 0)
	smc := card.SMC(1)
	if smc.SlaveAddr() != SMCAddrBase+2 {
		t.Errorf("mic1 SMC addr = %#x", smc.SlaveAddr())
	}
	bus.Attach(smc)
	bmc := ipmb.NewBMC(bus)

	now := 10 * time.Second
	for _, tc := range []struct {
		cmd    byte
		length int
	}{
		{CmdGetDieTemp, 3},
		{CmdGetGDDRTemp, 3},
		{CmdGetFanRPM, 3},
	} {
		data, done, err := bmc.Query(now, smc.SlaveAddr(), ipmb.NetFnOEM, tc.cmd, nil)
		if err != nil {
			t.Fatalf("cmd %#x: %v", tc.cmd, err)
		}
		if len(data) != tc.length || data[0] != ipmb.CompletionOK {
			t.Errorf("cmd %#x response = %v", tc.cmd, data)
		}
		now = done
	}
	// die temp value plausible
	data, _, _ := bmc.Query(now, smc.SlaveAddr(), ipmb.NetFnOEM, CmdGetDieTemp, nil)
	tenths := binary.LittleEndian.Uint16(data[1:])
	if tenths < 350 || tenths > 950 {
		t.Errorf("die temp = %d tenths C", tenths)
	}
}

// TestOOBPowerMilliwattsErrorPaths: the out-of-band collector errors when
// no SMC answers at its address, and collects once one does.
func TestOOBPowerMilliwattsErrorPaths(t *testing.T) {
	// querying an address with no SMC behind it
	bus := ipmb.NewBus()
	col := NewOOBCollector(ipmb.NewBMC(bus), 0x44)
	if _, err := col.CollectInto(nil, 0); err == nil {
		t.Error("Collect with no responder succeeded")
	}
	// an SMC that rejects the command: attach a card SMC but query a bogus
	// netFn through the raw bus path — covered in TestSMCInvalidCommand;
	// here check the collector surfaces non-OK completions.
	card := newCard()
	smc := card.SMC(0)
	bus.Attach(smc)
	col2 := NewOOBCollector(ipmb.NewBMC(bus), smc.SlaveAddr())
	if _, err := col2.CollectInto(nil, time.Second); err != nil {
		t.Fatalf("healthy collect failed: %v", err)
	}
}

func TestInBandCollectBadService(t *testing.T) {
	// a service whose response is too short to be a snapshot
	net := scif.NewNetwork(1)
	svc := &SysMgmtService{card: newCard()}
	raw, err := net.RegisterService(1, SysMgmtPort, func(start time.Duration, req []byte) ([]byte, time.Duration) {
		return []byte{1, 2, 3}, time.Millisecond
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.svc = raw
	col := NewInBandCollector(net, svc)
	if _, err := col.CollectInto(nil, time.Second); err == nil || !strings.Contains(err.Error(), "snapshot") {
		t.Errorf("short snapshot err = %v", err)
	}
}
