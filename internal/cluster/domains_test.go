package cluster

import (
	"bytes"
	"io"
	"runtime"
	"testing"
	"time"

	"envmon/internal/core"
	"envmon/internal/micras"
	"envmon/internal/workload"
)

// micrasOnly restricts a domain job to the daemon path — one collector per
// node, so the per-node CSV has a single unambiguous series set.
var micrasOnly = []core.BackendKey{micras.Daemon.Key}

// domainJobCSV runs a sharded cluster profiling job and returns every
// node's CSV concatenated in node order.
func domainJobCSV(t *testing.T, nodes, shards, workers int) []byte {
	t.Helper()
	c, err := NewStampede(nodes, 42)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(workload.PhiGauss(100*time.Millisecond, 300*time.Millisecond), 0, 10*time.Millisecond)

	d := c.Domains(shards)
	bufs := make([]bytes.Buffer, nodes)
	job, err := d.StartJob(DomainJobConfig{
		Backends: micrasOnly,
		Output:   func(i int) io.Writer { return &bufs[i] },
	})
	if err != nil {
		t.Fatalf("StartJob: %v", err)
	}
	d.AdvanceEpochs(500*time.Millisecond, 100*time.Millisecond, workers, nil)
	rep, err := job.FinalizeAll()
	if err != nil {
		t.Fatalf("FinalizeAll: %v", err)
	}
	if rep.Samples == 0 {
		t.Fatal("job collected no samples")
	}
	var all bytes.Buffer
	for i := range bufs {
		all.Write(bufs[i].Bytes())
	}
	return all.Bytes()
}

func TestDomainJobDeterministicAcrossWorkers(t *testing.T) {
	serial := domainJobCSV(t, 8, 0, 1)
	for _, workers := range []int{2, 8} {
		if got := domainJobCSV(t, 8, 0, workers); !bytes.Equal(got, serial) {
			t.Errorf("workers=%d: output differs from serial run", workers)
		}
	}
}

func TestDomainJobDeterministicAcrossShardCounts(t *testing.T) {
	// Sharding 8 nodes over 1, 3, or 8 domains changes only which clock a
	// node rides, never its event schedule.
	serial := domainJobCSV(t, 8, 1, 1)
	for _, shards := range []int{3, 8} {
		if got := domainJobCSV(t, 8, shards, 4); !bytes.Equal(got, serial) {
			t.Errorf("shards=%d: output differs from single-domain run", shards)
		}
	}
}

func TestDomainJobDeterministicAcrossGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	serial := domainJobCSV(t, 6, 0, 8)
	runtime.GOMAXPROCS(old)
	if got := domainJobCSV(t, 6, 0, 8); !bytes.Equal(got, serial) {
		t.Error("output differs between GOMAXPROCS=1 and default")
	}
}

func TestDomainsShardMap(t *testing.T) {
	c, err := NewStampede(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := c.Domains(2)
	if d.Shards() != 2 {
		t.Fatalf("Shards() = %d, want 2", d.Shards())
	}
	if d.Clock(0) != d.Clock(2) || d.Clock(1) != d.Clock(3) {
		t.Error("round-robin shard map broken: nodes 0/2 and 1/3 should share domains")
	}
	if d.Clock(0) == d.Clock(1) {
		t.Error("nodes 0 and 1 should ride different domains")
	}
	// Clamping: more shards than nodes means one domain per node.
	if got := c.Domains(64).Shards(); got != 5 {
		t.Errorf("Domains(64).Shards() = %d, want 5", got)
	}
	if got := c.Domains(0).Shards(); got != 5 {
		t.Errorf("Domains(0).Shards() = %d, want 5", got)
	}
}

func TestDomainsAdvanceBarrierSumsPower(t *testing.T) {
	// The barrier is the sanctioned place for cluster-wide reads: every
	// domain is parked, so SumPower's parallel fan-out cannot race the
	// domain workers.
	c, err := NewStampede(4, 7)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(workload.PhiGauss(100*time.Millisecond, 200*time.Millisecond), 0, 0)
	d := c.Domains(0)
	var sums []float64
	d.AdvanceEpochs(400*time.Millisecond, 100*time.Millisecond, 4, func(now time.Duration) {
		sums = append(sums, c.SumPhiPower(now))
	})
	if len(sums) != 4 {
		t.Fatalf("got %d barrier sums, want 4", len(sums))
	}
	for i, s := range sums {
		if s <= 0 {
			t.Errorf("barrier %d: non-positive cluster power %v", i, s)
		}
	}
}
