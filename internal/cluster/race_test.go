package cluster

import (
	"sync"
	"testing"
	"time"

	"envmon/internal/micras"
	"envmon/internal/workload"
)

// TestConcurrentNodeCollection drives every node's collection stacks from
// separate goroutines (as a real per-node agent fleet would), with each
// node's reads monotone in time. Run with -race; the devices' internal
// locking must make this safe even though nodes share nothing.
func TestConcurrentNodeCollection(t *testing.T) {
	c, err := NewStampede(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(workload.PhiGauss(20*time.Second, 30*time.Second), 0, 0)

	var wg sync.WaitGroup
	errs := make(chan error, len(c.Nodes))
	for _, n := range c.Nodes {
		wg.Add(1)
		go func(n *Node) {
			defer wg.Done()
			col := micras.NewCollector(n.PhiFS)
			defer col.Close()
			for ts := time.Second; ts < 60*time.Second; ts += 500 * time.Millisecond {
				if _, err := col.CollectInto(nil, ts); err != nil {
					errs <- err
					return
				}
			}
		}(n)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentSumWhileCollecting mixes cluster-wide power sums (which
// fan out with internal/par) with per-node collection, under -race.
func TestConcurrentSumWhileCollecting(t *testing.T) {
	c, err := NewStampede(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(workload.PhiGauss(10*time.Second, 20*time.Second), 0, 0)
	// NOTE: every consumer must be monotone per card; sums at time ts and
	// collections at the same ts satisfy that.
	for ts := time.Second; ts < 40*time.Second; ts += time.Second {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = c.SumPhiPower(ts)
		}()
		for _, n := range c.Nodes {
			wg.Add(1)
			go func(n *Node) {
				defer wg.Done()
				_ = n.PhiPower(ts)
			}(n)
		}
		wg.Wait()
	}
}
