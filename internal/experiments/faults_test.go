package experiments

import (
	"testing"

	"envmon/internal/core"
	"envmon/internal/faults"
)

// TestFaultPlanRunsEveryExperiment is the repro -faults drill: every
// experiment runs with core.DefaultRegistry decorated by a fault plan, as
// the -faults flag decorates it. Shape checks may fail under a plan — that
// is a result — but no experiment may panic or return an error.
func TestFaultPlanRunsEveryExperiment(t *testing.T) {
	base := core.DefaultRegistry
	t.Cleanup(func() { core.DefaultRegistry = base })
	for _, spec := range []string{"transient=0.01", "spike=0.5"} {
		plan, err := faults.ParsePlan(spec, testSeed)
		if err != nil {
			t.Fatal(err)
		}
		core.DefaultRegistry = faults.Decorate(base, plan)
		for _, id := range IDs() {
			t.Run(spec+"/"+id, func(t *testing.T) {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("panic: %v", p)
					}
				}()
				if _, err := Run(id, testSeed); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
