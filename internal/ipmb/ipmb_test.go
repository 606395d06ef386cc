package ipmb

import (
	"errors"
	"testing"
	"time"
)

func TestChecksumDefinition(t *testing.T) {
	// sum of covered bytes plus checksum must be 0 mod 256
	frame := Message{RsAddr: 0x42, NetFn: 0x2E, RqAddr: 0x20, Seq: 3, Cmd: 7, Data: []byte{0xAA, 0x55}}.Marshal()
	if s := frame[0] + frame[1] + frame[2]; s != 0 {
		t.Errorf("header checksum sum = %d", s)
	}
	var sum byte
	for _, b := range frame[3:] {
		sum += b
	}
	if sum != 0 {
		t.Errorf("payload checksum sum = %d", sum)
	}
}

func TestTransferTimeScalesWithSize(t *testing.T) {
	if TransferTime(10) != 900*time.Microsecond {
		t.Errorf("TransferTime(10) = %v", TransferTime(10))
	}
	if TransferTime(100) <= TransferTime(10) {
		t.Error("transfer time not monotone in size")
	}
}

type fakeSMC struct {
	addr    byte
	handled int
	delay   time.Duration
}

func (f *fakeSMC) SlaveAddr() byte { return f.addr }
func (f *fakeSMC) Handle(now time.Duration, req Message) ([]byte, time.Duration) {
	f.handled++
	switch req.Cmd {
	case 0x01:
		return []byte{CompletionOK, 0x10, 0x27}, f.delay // 10000 little-endian
	default:
		return []byte{CompletionInvalidCommand}, f.delay
	}
}

func TestBusTransaction(t *testing.T) {
	bus := NewBus()
	smc := &fakeSMC{addr: 0x30, delay: 500 * time.Microsecond}
	bus.Attach(smc)
	bmc := NewBMC(bus)

	start := time.Millisecond
	data, done, err := bmc.Query(start, 0x30, NetFnOEM, 0x01, nil)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != CompletionOK || len(data) != 3 {
		t.Fatalf("response data = %v", data)
	}
	if smc.handled != 1 {
		t.Error("SMC not invoked")
	}
	// total = request frame + handling + response frame; frames are 7 and
	// 10 bytes -> 630us + 500us + 900us
	elapsed := done - start
	want := TransferTime(7) + 500*time.Microsecond + TransferTime(10)
	if elapsed != want {
		t.Errorf("transaction time = %v, want %v", elapsed, want)
	}
	// out-of-band is slow: > 1 ms for even a tiny query
	if elapsed < time.Millisecond {
		t.Errorf("IPMB transaction suspiciously fast: %v", elapsed)
	}
}

func TestBusNoResponder(t *testing.T) {
	bus := NewBus()
	bmc := NewBMC(bus)
	_, _, err := bmc.Query(0, 0x44, NetFnOEM, 0x01, nil)
	if !errors.Is(err, ErrNoResponder) {
		t.Fatalf("err = %v", err)
	}
}

func TestBusDuplicateAddressPanics(t *testing.T) {
	bus := NewBus()
	bus.Attach(&fakeSMC{addr: 0x30})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate attach did not panic")
		}
	}()
	bus.Attach(&fakeSMC{addr: 0x30})
}

func TestInvalidCommandCompletionCode(t *testing.T) {
	bus := NewBus()
	bus.Attach(&fakeSMC{addr: 0x30})
	bmc := NewBMC(bus)
	data, _, err := bmc.Query(0, 0x30, NetFnOEM, 0x7F, nil)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != CompletionInvalidCommand {
		t.Fatalf("completion = %#x, want C1", data[0])
	}
}

func TestSequenceNumbersAdvanceAndWrap(t *testing.T) {
	bus := NewBus()
	bus.Attach(&fakeSMC{addr: 0x30})
	bmc := NewBMC(bus)
	for i := 0; i < 70; i++ { // crosses the 6-bit wrap
		if _, _, err := bmc.Query(0, 0x30, NetFnOEM, 0x01, nil); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
}

func TestResponseNetFnIsRequestPlusOne(t *testing.T) {
	bus := NewBus()
	bus.Attach(&fakeSMC{addr: 0x30})
	req := Message{RsAddr: 0x30, NetFn: NetFnOEM, RqAddr: 0x20, Seq: 1, Cmd: 0x01}
	resp, _, err := bus.Transact(0, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.NetFn != NetFnOEM|1 {
		t.Errorf("response NetFn = %#x, want %#x", resp.NetFn, NetFnOEM|1)
	}
	if resp.RsAddr != 0x20 || resp.RqAddr != 0x30 {
		t.Error("response addressing not swapped")
	}
}
