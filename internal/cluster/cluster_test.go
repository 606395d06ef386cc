package cluster

import (
	"testing"
	"time"

	"envmon/internal/core"
	"envmon/internal/mic"
	"envmon/internal/workload"
)

func TestNewStampedeShape(t *testing.T) {
	c, err := NewStampede(16, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Nodes) != 16 {
		t.Fatalf("nodes = %d", len(c.Nodes))
	}
	for _, n := range c.Nodes {
		if len(n.Sockets) != 2 {
			t.Fatalf("%s has %d sockets, want 2 (Stampede spec)", n.Name, len(n.Sockets))
		}
		if n.Phi == nil || n.PhiNet == nil || n.PhiSysMgmt == nil || n.PhiFS == nil {
			t.Fatalf("%s missing Phi stack", n.Name)
		}
	}
	if c.Nodes[0].Name == c.Nodes[1].Name {
		t.Error("duplicate node names")
	}
}

func TestNewStampedeValidation(t *testing.T) {
	if _, err := NewStampede(0, 1); err == nil {
		t.Fatal("0-node cluster accepted")
	}
}

func TestNewGPUCluster(t *testing.T) {
	c, err := NewGPUCluster(4, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		if len(n.GPUs) != 2 || n.GPULib == nil {
			t.Fatalf("%s GPU stack incomplete", n.Name)
		}
		if count, ret := n.GPULib.DeviceGetCount(); ret != 0 || count != 2 {
			t.Fatalf("library not initialized: %d, %v", count, ret)
		}
	}
	if _, err := NewGPUCluster(-1, 1, 0); err == nil {
		t.Fatal("negative cluster accepted")
	}
}

func TestFig8ShapeSumPower(t *testing.T) {
	// 16 Phis (the paper ran 16 "in the interest of preserving
	// allocation" and scaled the figure to 128): sum power must show the
	// generation plateau, then the compute knee.
	c, err := NewStampede(16, 42)
	if err != nil {
		t.Fatal(err)
	}
	w := workload.PhiGauss(100*time.Second, 140*time.Second)
	c.Run(w, 0, 100*time.Millisecond)

	gen := c.SumPhiPower(60 * time.Second)
	compute := c.SumPhiPower(180 * time.Second)
	after := c.SumPhiPower(280 * time.Second)

	perCardGen := gen / 16
	perCardCompute := compute / 16
	if perCardGen > 120 {
		t.Errorf("generation-phase per-card power = %.1f W, want near idle (~100)", perCardGen)
	}
	if perCardCompute < 170 {
		t.Errorf("compute-phase per-card power = %.1f W, want ~200", perCardCompute)
	}
	if compute < 1.5*gen {
		t.Errorf("knee not visible: gen %.0f W -> compute %.0f W", gen, compute)
	}
	if after > gen*1.1 {
		t.Errorf("power did not return toward idle after job: %.0f W", after)
	}
}

func TestSumPhiPowerDeterministicAcrossRuns(t *testing.T) {
	run := func() []float64 {
		c, err := NewStampede(8, 9)
		if err != nil {
			t.Fatal(err)
		}
		c.Run(workload.PhiGauss(20*time.Second, 30*time.Second), 0, 0)
		_, watts := c.SumPhiSeries(0, 60*time.Second, time.Second)
		return watts
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v != %v", i, a[i], b[i])
		}
	}
}

func TestNodesIndependentNoise(t *testing.T) {
	c, err := NewStampede(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(workload.PhiGauss(10*time.Second, 20*time.Second), 0, 0)
	same := 0
	for ts := 12 * time.Second; ts < 30*time.Second; ts += time.Second {
		if c.Nodes[0].PhiPower(ts) == c.Nodes[1].PhiPower(ts) {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d identical samples across nodes", same)
	}
}

func TestStaggeredStart(t *testing.T) {
	c, err := NewStampede(2, 11)
	if err != nil {
		t.Fatal(err)
	}
	// node 1 starts 30 s after node 0
	c.Run(workload.PhiGauss(10*time.Second, 60*time.Second), 0, 30*time.Second)
	// at t=30s node 0 is in compute (knee passed), node 1 still generating
	p0 := c.Nodes[0].PhiPower(30 * time.Second)
	p1 := c.Nodes[1].PhiPower(30 * time.Second)
	if p0 < p1+30 {
		t.Errorf("stagger not visible: node0 %.0f W vs node1 %.0f W", p0, p1)
	}
}

func TestNodeWithoutPhiReportsZero(t *testing.T) {
	n := &Node{Name: "bare"}
	if got := n.PhiPower(time.Second); got != 0 {
		t.Errorf("bare node PhiPower = %v", got)
	}
}

func TestPerNodeCollectionStacksWork(t *testing.T) {
	c, err := NewStampede(2, 21)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(workload.NoopKernel(time.Minute), 0, 0)
	for _, n := range c.Nodes {
		col := mic.NewInBandCollector(n.PhiNet, n.PhiSysMgmt)
		rs, err := col.CollectInto(nil, 10*time.Second)
		if err != nil {
			t.Fatalf("%s in-band: %v", n.Name, err)
		}
		if len(rs) == 0 {
			t.Fatalf("%s returned no readings", n.Name)
		}
		if _, err := n.PhiFS.ReadFile("/sys/class/micras/power", 11*time.Second); err != nil {
			t.Fatalf("%s micras: %v", n.Name, err)
		}
	}
}

func BenchmarkSumPhiPower128(b *testing.B) {
	c, err := NewStampede(128, 1)
	if err != nil {
		b.Fatal(err)
	}
	c.Run(workload.PhiGauss(100*time.Second, 140*time.Second), 0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.SumPhiPower(time.Duration(i) * 100 * time.Millisecond)
	}
}

func TestNodeCollectorsViaRegistry(t *testing.T) {
	c, err := NewStampede(1, 33)
	if err != nil {
		t.Fatal(err)
	}
	n := c.Nodes[0]
	c.Run(workload.NoopKernel(time.Minute), 0, 0)
	cols, err := n.Devices().Collectors(core.DefaultRegistry)
	if err != nil {
		t.Fatal(err)
	}
	// 2 sockets (MSR) + SysMgmt API + MICRAS daemon, in attach order.
	methods := make([]string, len(cols))
	for i, col := range cols {
		methods[i] = col.Method()
	}
	want := []string{"MSR", "MSR", "SysMgmt API", "MICRAS daemon"}
	if len(methods) != len(want) {
		t.Fatalf("methods = %v", methods)
	}
	for i := range want {
		if methods[i] != want[i] {
			t.Fatalf("methods = %v, want %v", methods, want)
		}
	}
	for _, col := range cols {
		if _, err := col.CollectInto(nil, 10*time.Second); err != nil {
			t.Errorf("%s collect: %v", col.Method(), err)
		}
	}
	if n.Devices().Len() != 4 {
		t.Errorf("Devices().Len() = %d", n.Devices().Len())
	}
}

func TestSumPowerByPlatform(t *testing.T) {
	c, err := NewStampede(2, 17)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(workload.PhiGauss(10*time.Second, 20*time.Second), 0, 0)
	t0 := 15 * time.Second
	if phi := c.SumPower(core.XeonPhi, t0); phi <= 0 {
		t.Errorf("Phi power = %v", phi)
	}
	if cpu := c.SumPower(core.RAPL, t0); cpu <= 0 {
		t.Errorf("RAPL power = %v", cpu)
	}
	// No BG/Q hardware on Stampede nodes.
	if bg := c.SumPower(core.BlueGeneQ, t0); bg != 0 {
		t.Errorf("BG/Q power on Stampede = %v", bg)
	}
	// SumPhiPower is the XeonPhi view (read at a later instant: per-node
	// reads must be non-decreasing in time).
	t1 := 16 * time.Second
	if got, want := c.SumPhiPower(t1), c.SumPower(core.XeonPhi, t1); got != want {
		t.Errorf("SumPhiPower = %v, SumPower(XeonPhi) = %v", got, want)
	}
}

func TestSumPowerSeriesGrid(t *testing.T) {
	c, err := NewStampede(2, 23)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(workload.PhiGauss(5*time.Second, 10*time.Second), 0, 0)
	times, watts := c.SumPowerSeries(core.XeonPhi, 0, 10*time.Second, time.Second)
	if len(times) != 10 || len(watts) != 10 {
		t.Fatalf("grid = %d/%d points, want 10", len(times), len(watts))
	}
	// grid is known up front: exactly one allocation per result slice
	if cap(times) != 10 || cap(watts) != 10 {
		t.Errorf("result capacity = %d/%d, want exact prealloc 10", cap(times), cap(watts))
	}
	if times[0] != 0 || times[9] != 9*time.Second {
		t.Errorf("grid times = %v", times)
	}
	if ts, ws := c.SumPowerSeries(core.XeonPhi, 0, 0, time.Second); ts != nil || ws != nil {
		t.Error("empty range returned non-nil")
	}
	if ts, ws := c.SumPowerSeries(core.XeonPhi, 0, time.Second, 0); ts != nil || ws != nil {
		t.Error("non-positive period returned non-nil")
	}
}

func TestGenericAttach(t *testing.T) {
	// A node assembled purely through the generic Attach API behaves like
	// the typed wrappers built it.
	card := mic.New(mic.Config{Index: 0, Seed: 77})
	n := &Node{Name: "generic"}
	n.Attach(core.BackendKey{Platform: core.XeonPhi, Method: "MICRAS daemon"},
		nil, card.Run, card.TotalPower)
	n.Run(workload.PhiGauss(5*time.Second, 10*time.Second), 0)
	if p := n.SumPower(core.XeonPhi, 20*time.Second); p <= 0 {
		t.Errorf("generic node power = %v", p)
	}
	if n.Devices().Len() != 1 {
		t.Errorf("Devices().Len() = %d", n.Devices().Len())
	}
}
