package cluster

import (
	"reflect"
	"testing"

	"envmon/internal/core"
	"envmon/internal/resilience"
)

// TestFallbackChainsPerNode reads each node's resilience chains as
// StartJob hands them to OnResilience and checks each chain's sources in
// order: on a Stampede node the in-band SysMgmt API carries the MICRAS
// daemon behind it and MICRAS gets no chain of its own; a MICRAS-only job
// keeps MICRAS as a one-source chain; a GPU node has no fallback.
func TestFallbackChainsPerNode(t *testing.T) {
	stampede := func() (*Cluster, error) { return NewStampede(2, 42) }
	gpu := func() (*Cluster, error) { return NewGPUCluster(2, 2, 42) }
	for _, tc := range []struct {
		name     string
		build    func() (*Cluster, error)
		backends []core.BackendKey
		want     [][]string
	}{
		{"stampede", stampede, nil, [][]string{{"MSR"}, {"MSR"}, {"SysMgmt API", "MICRAS daemon"}}},
		{"stampede/micras-only", stampede, micrasOnly, [][]string{{"MICRAS daemon"}}},
		{"gpu", gpu, nil, [][]string{{"MSR"}, {"NVML"}, {"NVML"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			got := map[string][][]string{}
			job, err := c.Domains(0).StartJob(DomainJobConfig{
				Backends:   tc.backends,
				Resilience: &resilience.Policy{},
				OnResilience: func(node string, chains []*resilience.Collector) {
					for _, ch := range chains {
						var methods []string
						for _, s := range ch.Status() {
							methods = append(methods, s.Method)
						}
						got[node] = append(got[node], methods)
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer job.FinalizeAll()
			if len(got) != len(c.Nodes) {
				t.Fatalf("OnResilience saw %d nodes, want %d", len(got), len(c.Nodes))
			}
			for _, n := range c.Nodes {
				if !reflect.DeepEqual(got[n.Name], tc.want) {
					t.Errorf("%s chains = %q, want %q", n.Name, got[n.Name], tc.want)
				}
			}
		})
	}
}
