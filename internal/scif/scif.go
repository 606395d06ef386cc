// Package scif simulates Intel's Symmetric Communication Interface, the
// host<->coprocessor transport of the Xeon Phi software stack (paper
// Section II.D and Figure 6).
//
// SCIF's defining property, which the paper highlights, is symmetry: "all
// drivers should expose the same interfaces on both the host and on the
// Xeon Phi", so software can run wherever appropriate. The model is the
// synchronous RPC the Phi's collection paths take: RegisterService claims a
// port on a node and Call carries a request across the simulated PCIe bus,
// runs the handler and carries the response back, each hop with a
// size-dependent transit time that is the same in both directions. The
// in-band SysMgmt path of internal/mic is built on it.
//
// The simulation is lazy and deterministic like the rest of the system:
// Call returns an explicit completion time and there are no goroutines or
// blocking calls; the caller advances the simulated clock.
package scif

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// NodeID identifies a SCIF node: 0 is the host; coprocessor cards are
// numbered from 1 (mic0 = node 1), as in the real SCIF numbering.
type NodeID uint16

// HostNode is the host processor's node ID.
const HostNode NodeID = 0

// PortID is a SCIF port.
type PortID uint16

// Latency model for the PCIe hop. A small fixed cost plus a term
// proportional to message size at ~6 GB/s effective.
const (
	baseLatency   = 2 * time.Microsecond
	bytesPerMicro = 6000 // ~6 GB/s
)

// transitTime reports the simulated PCIe delivery time for a message.
// Same-node messages (loopback) are near-free.
func transitTime(from, to NodeID, size int) time.Duration {
	if from == to {
		return 200 * time.Nanosecond
	}
	return baseLatency + time.Duration(size/bytesPerMicro)*time.Microsecond
}

// Common errors.
var (
	ErrPortInUse   = errors.New("scif: port already bound")
	ErrConnRefused = errors.New("scif: connection refused")
	ErrNoSuchNode  = errors.New("scif: no such node")
)

// address is one node's port.
type address struct {
	node NodeID
	port PortID
}

// Network is the SCIF fabric connecting a host and its coprocessor cards.
type Network struct {
	cards NodeID // nodes are HostNode and 1..cards

	mu    sync.Mutex
	bound map[address]bool
}

// NewNetwork creates a fabric with the host node and cards coprocessor
// nodes (numbered 1..cards).
func NewNetwork(cards int) *Network {
	return &Network{cards: NodeID(cards), bound: make(map[address]bool)}
}

// checkNode refuses a node the fabric does not have.
func (n *Network) checkNode(node NodeID) error {
	if node > n.cards {
		return fmt.Errorf("%w: %d", ErrNoSuchNode, node)
	}
	return nil
}

// Handler services an RPC request on the server node. It receives the
// simulated time at which handling starts and returns the response payload
// plus the handling duration (compute time on the serving node).
type Handler func(start time.Duration, req []byte) (resp []byte, handling time.Duration)

// Service is a registered RPC server on a node/port, used for the SysMgmt
// path: the host sends a request, the device-side agent handles it, and the
// response travels back.
type Service struct {
	node    NodeID
	handler Handler
}

// RegisterService installs an RPC handler on a node's port, claiming the
// port. It refuses a node the fabric does not have and a port already
// claimed on that node.
func (n *Network) RegisterService(node NodeID, port PortID, h Handler) (*Service, error) {
	if err := n.checkNode(node); err != nil {
		return nil, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	a := address{node, port}
	if n.bound[a] {
		return nil, fmt.Errorf("%w: node %d port %d", ErrPortInUse, node, port)
	}
	n.bound[a] = true
	return &Service{node: node, handler: h}, nil
}

// Call performs a synchronous RPC from a client node at simulated time now:
// request transit, handling on the server, response transit. It returns the
// response, the completion time, and any error. The caller is responsible
// for advancing its clock to done.
func (n *Network) Call(client NodeID, svc *Service, now time.Duration, req []byte) (resp []byte, done time.Duration, err error) {
	if svc == nil || svc.handler == nil {
		return nil, now, ErrConnRefused
	}
	if err := n.checkNode(client); err != nil {
		return nil, now, err
	}
	arrive := now + transitTime(client, svc.node, len(req))
	resp, handling := svc.handler(arrive, req)
	finish := arrive + handling
	done = finish + transitTime(svc.node, client, len(resp))
	return resp, done, nil
}
