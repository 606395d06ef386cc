// Package ipmb simulates the Intelligent Platform Management Bus used by
// the Xeon Phi's out-of-band collection path (paper Section II.D): the
// card's System Management Controller (SMC) "can then respond to queries
// from the platform's Baseboard Management Controller (BMC) using the
// intelligent platform management bus (IPMB) protocol to pass the
// information upstream to the user".
//
// We implement the IPMB v1.0 request/response framing — slave addresses,
// network function codes, sequence numbers, and both header and payload
// checksums — and the bus's defining performance property: it is a 100 kHz
// I²C multidrop bus, so every transaction costs tens of microseconds per
// byte, making out-of-band collection slow but free of any disturbance to
// the card's compute resources.
package ipmb

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Well-known network function codes (request values; responses are +1).
const (
	NetFnChassis     = 0x00
	NetFnSensorEvent = 0x04
	NetFnApp         = 0x06
	NetFnOEM         = 0x2E
)

// Completion codes.
const (
	CompletionOK             = 0x00
	CompletionInvalidCommand = 0xC1
	CompletionTimeout        = 0xC3
	CompletionDestUnavail    = 0xD3
)

// Message is an IPMB frame's logical content.
type Message struct {
	RsAddr byte // responder slave address
	NetFn  byte // network function (6 bits) — even: request, odd: response
	RqAddr byte // requester slave address
	Seq    byte // sequence number (6 bits)
	Cmd    byte
	Data   []byte
}

// checksum is the IPMB two's-complement checksum: sum of bytes + checksum
// ≡ 0 (mod 256).
func checksum(bs ...byte) byte {
	var sum byte
	for _, b := range bs {
		sum += b
	}
	return -sum
}

// Marshal encodes the frame with both checksums:
// [rsAddr, netFn<<2, chk1, rqAddr, seq<<2, cmd, data..., chk2].
func (m Message) Marshal() []byte {
	out := make([]byte, 0, 7+len(m.Data))
	out = append(out, m.RsAddr, m.NetFn<<2)
	out = append(out, checksum(out[0], out[1]))
	out = append(out, m.RqAddr, m.Seq<<2, m.Cmd)
	out = append(out, m.Data...)
	var sum byte
	for _, b := range out[3:] {
		sum += b
	}
	out = append(out, -sum)
	return out
}

// ErrNoResponder is a request to an address no controller answers at.
var ErrNoResponder = errors.New("ipmb: no responder at address")

// TransferTime reports the bus occupancy of a frame: IPMB is 100 kHz I²C —
// 9 clocks per byte plus start/stop — about 90 µs per byte.
func TransferTime(frameBytes int) time.Duration {
	return time.Duration(frameBytes) * 90 * time.Microsecond
}

// Responder is a management controller on the bus (an SMC).
type Responder interface {
	// SlaveAddr is the controller's 7-bit address shifted left (8-bit form).
	SlaveAddr() byte
	// Handle services a request at simulated time now, returning response
	// data (starting with a completion code) and the handling duration.
	Handle(now time.Duration, req Message) (data []byte, handling time.Duration)
}

// Bus is a multidrop IPMB segment.
type Bus struct {
	mu         sync.Mutex
	responders map[byte]Responder
	seq        byte
}

// NewBus returns an empty bus.
func NewBus() *Bus {
	return &Bus{responders: make(map[byte]Responder)}
}

// Attach adds a responder. Attaching two controllers at one address is a
// wiring error and panics.
func (b *Bus) Attach(r Responder) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, dup := b.responders[r.SlaveAddr()]; dup {
		panic(fmt.Sprintf("ipmb: duplicate slave address %#x", r.SlaveAddr()))
	}
	b.responders[r.SlaveAddr()] = r
}

// Transact performs one request/response exchange at simulated time now:
// request frame transfer, responder handling, response frame transfer. It
// returns the decoded response and the completion time.
func (b *Bus) Transact(now time.Duration, req Message) (Message, time.Duration, error) {
	b.mu.Lock()
	r, ok := b.responders[req.RsAddr]
	b.mu.Unlock()
	reqFrame := req.Marshal()
	arrive := now + TransferTime(len(reqFrame))
	if !ok {
		// Address with no responder: the bus times out after the frame.
		return Message{}, arrive, fmt.Errorf("%w %#x", ErrNoResponder, req.RsAddr)
	}
	data, handling := r.Handle(arrive, req)
	resp := Message{
		RsAddr: req.RqAddr,
		NetFn:  req.NetFn | 1, // response netFn is request+1
		RqAddr: req.RsAddr,
		Seq:    req.Seq,
		Cmd:    req.Cmd,
		Data:   data,
	}
	respFrame := resp.Marshal()
	done := arrive + handling + TransferTime(len(respFrame))
	return resp, done, nil
}

// BMC is the platform's baseboard management controller: the requester that
// queries SMCs on behalf of out-of-band consumers.
type BMC struct {
	bus  *Bus
	addr byte
	mu   sync.Mutex
	seq  byte
}

// NewBMC attaches a BMC with the conventional address 0x20.
func NewBMC(bus *Bus) *BMC { return &BMC{bus: bus, addr: 0x20} }

// Query sends one command to a target SMC and returns the response data
// (first byte is the completion code) and the completion time.
func (b *BMC) Query(now time.Duration, target, netFn, cmd byte, data []byte) ([]byte, time.Duration, error) {
	b.mu.Lock()
	b.seq = (b.seq + 1) & 0x3F
	seq := b.seq
	b.mu.Unlock()
	req := Message{RsAddr: target, NetFn: netFn, RqAddr: b.addr, Seq: seq, Cmd: cmd, Data: data}
	resp, done, err := b.bus.Transact(now, req)
	if err != nil {
		return nil, done, err
	}
	if resp.Seq != seq {
		return nil, done, fmt.Errorf("ipmb: response sequence %d != request %d", resp.Seq, seq)
	}
	return resp.Data, done, nil
}
