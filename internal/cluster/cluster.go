// Package cluster composes the vendor device simulations into whole
// machines: Stampede-like CPU+Phi nodes (the paper's Figure 8 testbed,
// "6,400+ Dell PowerEdge server nodes, each outfitted with 2 Intel Xeon E5
// (Sandy Bridge) processors and an Intel Xeon Phi Coprocessor"), GPU nodes,
// and helpers to run a workload across a partition and aggregate power.
//
// Nodes are device-generic: every device is attached through Attach (or a
// typed wrapper like AttachSocket/AttachGPUs/AttachPhi that also fills the
// legacy convenience fields), which records the backend key + target for
// the core registry, a workload runner, and an optional power source.
// Node.Run, Node.SumPower, and Node.Collectors then work uniformly over
// whatever mix of vendors the node carries.
//
// Per-node device state is independent, so cluster-wide sweeps parallelize
// with internal/par; sums fold in node order so results replay bit-exactly.
package cluster

import (
	"fmt"
	"time"

	"envmon/internal/core"
	"envmon/internal/mic"
	"envmon/internal/micras"
	"envmon/internal/nvml"
	"envmon/internal/par"
	"envmon/internal/rapl"
	"envmon/internal/scif"
	"envmon/internal/workload"
)

// Runner assigns a workload to one device starting at a simulated time.
type Runner func(w workload.Workload, start time.Duration)

// PowerFunc reads one device's board power at a simulated time. Reads must
// use non-decreasing t per node.
type PowerFunc func(t time.Duration) float64

// powerSource tags a power reader with its platform for SumPower.
type powerSource struct {
	platform core.Platform
	read     PowerFunc
}

// Node is one cluster node with its devices and their access stacks.
type Node struct {
	Name string

	// Typed views of the attached devices, filled by the typed attach
	// wrappers; generic code should use Run/SumPower/Collectors instead.
	Sockets []*rapl.Socket

	// GPU stack (nil if the node has no GPUs)
	GPULib *nvml.Library
	GPUs   []*nvml.Device

	// Xeon Phi stack (nil if the node has no coprocessor)
	Phi        *mic.Card
	PhiNet     *scif.Network
	PhiSysMgmt *mic.SysMgmtService
	PhiFS      *micras.FS

	devices  core.DeviceSet
	runners  []Runner
	powers   []powerSource
	throttle *workload.Throttle
}

// Attach records a generic device attachment: the backend key + target the
// core registry builds a collector from, plus optional run and power
// hooks (either may be nil).
func (n *Node) Attach(key core.BackendKey, target any, run Runner, power PowerFunc) {
	n.devices.Attach(key, target)
	if run != nil {
		n.runners = append(n.runners, run)
	}
	if power != nil {
		n.powers = append(n.powers, powerSource{platform: key.Platform, read: power})
	}
}

// AttachSocket attaches a RAPL socket: MSR backend, host-side workload,
// PKG-plane power.
func (n *Node) AttachSocket(s *rapl.Socket) {
	n.Sockets = append(n.Sockets, s)
	n.Attach(core.BackendKey{Platform: core.RAPL, Method: "MSR"}, s, s.Run,
		func(t time.Duration) float64 { return s.TruePower(rapl.PKG, t) })
}

// AttachGPUs attaches an initialized NVML library and its devices, one
// backend attachment per device index.
func (n *Node) AttachGPUs(lib *nvml.Library, devs ...*nvml.Device) {
	n.GPULib = lib
	for i, d := range devs {
		d := d
		n.GPUs = append(n.GPUs, d)
		n.Attach(core.BackendKey{Platform: core.NVML, Method: "NVML"},
			nvml.Target{Lib: lib, Index: i}, d.Run,
			func(t time.Duration) float64 {
				mw, ret := d.GetPowerUsage(t)
				if ret != nvml.Success {
					return 0
				}
				return float64(mw) / 1000
			})
	}
}

// AttachPhi attaches a Xeon Phi with its full software stack: the SCIF
// network and SysMgmt agent for the in-band path, and the MICRAS file
// system for the daemon path.
func (n *Node) AttachPhi(card *mic.Card) error {
	net := scif.NewNetwork(1)
	svc, err := mic.StartSysMgmt(net, 1, card)
	if err != nil {
		return fmt.Errorf("cluster: starting SysMgmt: %w", err)
	}
	n.Phi = card
	n.PhiNet = net
	n.PhiSysMgmt = svc
	n.PhiFS = micras.NewFS(card)
	n.Attach(core.BackendKey{Platform: core.XeonPhi, Method: "SysMgmt API"},
		mic.InBandTarget{Net: net, Svc: svc}, card.Run, card.TotalPower)
	n.Attach(core.BackendKey{Platform: core.XeonPhi, Method: "MICRAS daemon"},
		n.PhiFS, nil, nil)
	return nil
}

// Devices exposes the node's generic backend attachments.
func (n *Node) Devices() *core.DeviceSet { return &n.devices }

// Run assigns a workload to every device on the node starting at the given
// simulated time. Each device interprets the activity through its own
// lens: sockets take the host-side components, accelerators the
// device-side ones. The workload runs under the node's throttle schedule
// (see SetThrottle), so a power cap applied later slows this job too.
func (n *Node) Run(w workload.Workload, start time.Duration) {
	tw := workload.Throttled(w, n.throttleSched(), start)
	for _, run := range n.runners {
		run(tw, start)
	}
}

// SumPower reports the node's combined device power for one platform at
// time t (0 if the node has no such devices). Reads must use
// non-decreasing t per node.
func (n *Node) SumPower(p core.Platform, t time.Duration) float64 {
	var sum float64
	for _, ps := range n.powers {
		if ps.platform == p {
			sum += ps.read(t)
		}
	}
	return sum
}

// PhiPower reports the node's coprocessor board power at time t (0 for
// nodes without one).
func (n *Node) PhiPower(t time.Duration) float64 {
	return n.SumPower(core.XeonPhi, t)
}

// Cluster is a named set of nodes.
type Cluster struct {
	Name  string
	Nodes []*Node
}

// NewStampede builds a Stampede-shaped cluster: every node carries two
// Sandy Bridge sockets and one Xeon Phi with its full software stack (SCIF
// network, SysMgmt agent, MICRAS file system).
func NewStampede(nodes int, seed uint64) (*Cluster, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("cluster: need at least one node, got %d", nodes)
	}
	c := &Cluster{Name: "stampede-sim"}
	for i := 0; i < nodes; i++ {
		name := fmt.Sprintf("c%03d-%03d", 401+i/100, i%100)
		nodeSeed := seed + uint64(i)*0x9E3779B97F4A7C15
		n := &Node{Name: name}
		for s := 0; s < 2; s++ {
			n.AttachSocket(rapl.NewSocket(rapl.Config{
				Name: fmt.Sprintf("%s/socket%d", name, s),
				Seed: nodeSeed,
			}))
		}
		if err := n.AttachPhi(mic.New(mic.Config{Index: 0, Seed: nodeSeed})); err != nil {
			return nil, fmt.Errorf("cluster: node %s: %w", name, err)
		}
		c.Nodes = append(c.Nodes, n)
	}
	return c, nil
}

// NewGPUCluster builds nodes with one socket and the given number of K20s
// each.
func NewGPUCluster(nodes, gpusPerNode int, seed uint64) (*Cluster, error) {
	if nodes <= 0 || gpusPerNode < 0 {
		return nil, fmt.Errorf("cluster: bad shape %dx%d", nodes, gpusPerNode)
	}
	c := &Cluster{Name: "gpu-sim"}
	for i := 0; i < nodes; i++ {
		name := fmt.Sprintf("gpu%04d", i)
		nodeSeed := seed + uint64(i)*0x9E3779B97F4A7C15
		n := &Node{Name: name}
		n.AttachSocket(rapl.NewSocket(rapl.Config{Name: name + "/socket0", Seed: nodeSeed}))
		gpus := make([]*nvml.Device, gpusPerNode)
		for g := 0; g < gpusPerNode; g++ {
			gpus[g] = nvml.NewDevice(nvml.K20Spec(), g, nodeSeed)
		}
		lib := nvml.NewLibrary(gpus...)
		lib.Init()
		n.AttachGPUs(lib, gpus...)
		c.Nodes = append(c.Nodes, n)
	}
	return c, nil
}

// Run assigns a workload to every node. With staggerPerNode non-zero, node
// i starts at start + i*staggerPerNode (real jobs never start perfectly
// aligned across a machine).
func (c *Cluster) Run(w workload.Workload, start, staggerPerNode time.Duration) {
	for i, n := range c.Nodes {
		n.Run(w, start+time.Duration(i)*staggerPerNode)
	}
}

// SumPower reports the cluster-wide power of one platform's devices at
// time t. The per-node reads run in parallel and fold in node order, so
// the sum replays bit-exactly.
func (c *Cluster) SumPower(p core.Platform, t time.Duration) float64 {
	return par.SumOrdered(len(c.Nodes), 0, func(i int) float64 {
		return c.Nodes[i].SumPower(p, t)
	})
}

// SumPhiPower reports the cluster-wide coprocessor power at time t — the
// quantity of the paper's Figure 8 ("Sum of power consumption ... running
// on 128 Xeon Phi cards on Stampede").
func (c *Cluster) SumPhiPower(t time.Duration) float64 {
	return c.SumPower(core.XeonPhi, t)
}

// SumPowerSeries samples SumPower on a regular grid over [from, to) and
// returns the times and watts; the grid size is known up front, so the
// result slices are allocated exactly once.
func (c *Cluster) SumPowerSeries(p core.Platform, from, to, period time.Duration) (times []time.Duration, watts []float64) {
	if period <= 0 || to <= from {
		return nil, nil
	}
	npts := int((to - from + period - 1) / period)
	times = make([]time.Duration, 0, npts)
	watts = make([]float64, 0, npts)
	for ts := from; ts < to; ts += period {
		times = append(times, ts)
		watts = append(watts, c.SumPower(p, ts))
	}
	return times, watts
}

// SumPhiSeries samples SumPhiPower on a regular grid over [from, to).
func (c *Cluster) SumPhiSeries(from, to, period time.Duration) (times []time.Duration, watts []float64) {
	return c.SumPowerSeries(core.XeonPhi, from, to, period)
}
