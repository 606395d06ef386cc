// Package scif simulates Intel's Symmetric Communication Interface, the
// host<->coprocessor transport of the Xeon Phi software stack (paper
// Section II.D and Figure 6).
//
// SCIF's defining property, which the paper highlights, is symmetry: "all
// drivers should expose the same interfaces on both the host and on the
// Xeon Phi", so software can run wherever appropriate. The path the
// binaries take is the synchronous RPC: RegisterService claims a port on a
// node (a privileged, bound, listening endpoint) and Call carries a request
// across the simulated PCIe bus, runs the handler and carries the response
// back, each hop with a size-dependent transit time that is the same in
// both directions. The SysMgmt and RAS paths of internal/mic are built on
// it.
//
// The connection layer (Connect, Accept, Send, Recv) and remote memory
// access (rma.go) are reached only by their own tests; ROADMAP item 10
// schedules their removal.
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

// PortID is a SCIF port. Ports below 1024 are "privileged" (reserved for
// system services like the SysMgmt interface).
type PortID uint16

// PrivilegedPortMax is the top of the reserved port range.
const PrivilegedPortMax PortID = 1023

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
	ErrPortInUse     = errors.New("scif: port already bound")
	ErrNotBound      = errors.New("scif: endpoint not bound")
	ErrNotListening  = errors.New("scif: endpoint not listening")
	ErrConnRefused   = errors.New("scif: connection refused")
	ErrClosed        = errors.New("scif: connection closed")
	ErrNoSuchNode    = errors.New("scif: no such node")
	ErrWouldBlock    = errors.New("scif: operation would block")
	ErrNotPrivileged = errors.New("scif: privileged port requires privileged endpoint")
)

// message is one in-flight datagram.
type message struct {
	payload   []byte
	deliverAt time.Duration
	seq       uint64
}

// Network is the SCIF fabric connecting a host and its coprocessor cards.
type Network struct {
	mu    sync.Mutex
	nodes map[NodeID]bool
	bound map[NodeID]map[PortID]*Endpoint
	seq   uint64
}

// NewNetwork creates a fabric with the host node and cards coprocessor
// nodes (numbered 1..cards).
func NewNetwork(cards int) *Network {
	n := &Network{
		nodes: map[NodeID]bool{HostNode: true},
		bound: make(map[NodeID]map[PortID]*Endpoint),
	}
	for i := 1; i <= cards; i++ {
		n.nodes[NodeID(i)] = true
	}
	return n
}

// Endpoint is a SCIF endpoint, analogous to a scif_epd_t.
type Endpoint struct {
	net        *Network
	node       NodeID
	port       PortID
	bound      bool
	listening  bool
	privileged bool
	backlog    []*Conn // pending connections awaiting Accept
}

// NewEndpoint opens an endpoint on a node (scif_open). privileged marks
// kernel-mode endpoints that may bind reserved ports (the kernel-mode
// drivers of Figure 6).
func (n *Network) NewEndpoint(node NodeID, privileged bool) (*Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.nodes[node] {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchNode, node)
	}
	return &Endpoint{net: n, node: node, privileged: privileged}, nil
}

// Bind claims a local port (scif_bind).
func (e *Endpoint) Bind(port PortID) error {
	n := e.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if e.bound {
		return fmt.Errorf("scif: endpoint already bound to port %d", e.port)
	}
	if port <= PrivilegedPortMax && !e.privileged {
		return ErrNotPrivileged
	}
	ports := n.bound[e.node]
	if ports == nil {
		ports = make(map[PortID]*Endpoint)
		n.bound[e.node] = ports
	}
	if _, taken := ports[port]; taken {
		return fmt.Errorf("%w: node %d port %d", ErrPortInUse, e.node, port)
	}
	ports[port] = e
	e.bound = true
	e.port = port
	return nil
}

// Listen marks the endpoint as accepting connections (scif_listen).
func (e *Endpoint) Listen() error {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	if !e.bound {
		return ErrNotBound
	}
	e.listening = true
	return nil
}

// Conn is one side of an established SCIF connection.
type Conn struct {
	net        *Network
	localNode  NodeID
	remoteNode NodeID
	peer       *Conn
	inbox      []message
	closed     bool
	rma        *rmaState // registered-memory bookkeeping (see rma.go)
}

// Connect establishes a connection to a listening remote port
// (scif_connect). The connection is available immediately; connection
// setup latency is folded into the first message's transit.
func (e *Endpoint) Connect(node NodeID, port PortID) (*Conn, error) {
	n := e.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.nodes[node] {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchNode, node)
	}
	remote := n.bound[node][port]
	if remote == nil || !remote.listening {
		return nil, fmt.Errorf("%w: node %d port %d", ErrConnRefused, node, port)
	}
	local := &Conn{net: n, localNode: e.node, remoteNode: node}
	server := &Conn{net: n, localNode: node, remoteNode: e.node}
	local.peer, server.peer = server, local
	remote.backlog = append(remote.backlog, server)
	return local, nil
}

// Accept pops a pending connection (scif_accept). It returns ErrWouldBlock
// when no connection is pending — callers poll as the clock advances.
func (e *Endpoint) Accept() (*Conn, error) {
	n := e.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if !e.listening {
		return nil, ErrNotListening
	}
	if len(e.backlog) == 0 {
		return nil, ErrWouldBlock
	}
	c := e.backlog[0]
	e.backlog = e.backlog[1:]
	return c, nil
}

// Send transmits a message at simulated time now (scif_send). The payload
// is copied; delivery occurs after the PCIe transit time.
func (c *Conn) Send(now time.Duration, payload []byte) error {
	n := c.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if c.closed || c.peer == nil || c.peer.closed {
		return ErrClosed
	}
	n.seq++
	msg := message{
		payload:   append([]byte(nil), payload...),
		deliverAt: now + transitTime(c.localNode, c.remoteNode, len(payload)),
		seq:       n.seq,
	}
	c.peer.inbox = append(c.peer.inbox, msg)
	return nil
}

// Recv returns the oldest message that has arrived by simulated time now,
// or ErrWouldBlock if none has. Messages arrive in send order (PCIe is
// point-to-point ordered).
func (c *Conn) Recv(now time.Duration) ([]byte, error) {
	n := c.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(c.inbox) == 0 {
		if c.closed || c.peer == nil || c.peer.closed {
			return nil, ErrClosed
		}
		return nil, ErrWouldBlock
	}
	head := c.inbox[0]
	if head.deliverAt > now {
		return nil, ErrWouldBlock
	}
	c.inbox = c.inbox[1:]
	return head.payload, nil
}

// NextArrival reports when the next queued message becomes readable, for
// callers deciding how far to advance the clock. ok is false with an empty
// queue.
func (c *Conn) NextArrival() (time.Duration, bool) {
	n := c.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(c.inbox) == 0 {
		return 0, false
	}
	return c.inbox[0].deliverAt, true
}

// Close shuts the connection down; the peer's subsequent operations return
// ErrClosed once its inbox drains.
func (c *Conn) Close() {
	c.net.mu.Lock()
	defer c.net.mu.Unlock()
	c.closed = true
}

// LocalNode and RemoteNode identify the connection's ends.
func (c *Conn) LocalNode() NodeID  { return c.localNode }
func (c *Conn) RemoteNode() NodeID { return c.remoteNode }

// --- Synchronous RPC convenience ---------------------------------------------

// Handler services an RPC request on the server node. It receives the
// simulated time at which handling starts and returns the response payload
// plus the handling duration (compute time on the serving node).
type Handler func(start time.Duration, req []byte) (resp []byte, handling time.Duration)

// Service is a registered RPC server on a node/port, used for the SysMgmt
// path: the host sends a request, the device-side agent handles it, and the
// response travels back.
type Service struct {
	net     *Network
	node    NodeID
	port    PortID
	handler Handler
}

// RegisterService installs an RPC handler on a node's port. It claims the
// port like a bound, listening endpoint.
func (n *Network) RegisterService(node NodeID, port PortID, h Handler) (*Service, error) {
	ep, err := n.NewEndpoint(node, true)
	if err != nil {
		return nil, err
	}
	if err := ep.Bind(port); err != nil {
		return nil, err
	}
	if err := ep.Listen(); err != nil {
		return nil, err
	}
	return &Service{net: n, node: node, port: port, handler: h}, nil
}

// Call performs a synchronous RPC from a client node at simulated time now:
// request transit, handling on the server, response transit. It returns the
// response, the completion time, and any error. The caller is responsible
// for advancing its clock to done.
func (n *Network) Call(client NodeID, svc *Service, now time.Duration, req []byte) (resp []byte, done time.Duration, err error) {
	if svc == nil || svc.handler == nil {
		return nil, now, ErrConnRefused
	}
	n.mu.Lock()
	if !n.nodes[client] {
		n.mu.Unlock()
		return nil, now, fmt.Errorf("%w: %d", ErrNoSuchNode, client)
	}
	n.mu.Unlock()
	arrive := now + transitTime(client, svc.node, len(req))
	resp, handling := svc.handler(arrive, req)
	finish := arrive + handling
	done = finish + transitTime(svc.node, client, len(resp))
	return resp, done, nil
}
