package experiments

import (
	"strings"
	"testing"
	"time"
)

const testSeed = 42

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "table2", "table3", "table4",
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"ablation-msr-vs-perf", "ablation-rapl-wrap", "ablation-scif-batch", "ablation-moneq-interval",
		"table5-tools", "ablation-envdb-capacity",
		"scale-domains",
	}
	ids := IDs()
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(ids) != len(want) {
		t.Errorf("registry has %d experiments, want %d: %v", len(ids), len(want), ids)
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("fig99", testSeed); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestLookup(t *testing.T) {
	e, ok := Lookup("fig3")
	if !ok || e.ID != "fig3" || e.Title == "" {
		t.Fatalf("Lookup(fig3) = %+v, %v", e, ok)
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup found nonexistent experiment")
	}
}

// runChecked runs one experiment and fails the test on any failed shape
// check, printing the check details.
func runChecked(t *testing.T, id string) Result {
	t.Helper()
	r, err := Run(id, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != id {
		t.Errorf("result ID = %q", r.ID)
	}
	for _, c := range r.Checks {
		if !c.Pass {
			t.Errorf("%s: check %q failed: %s", id, c.Name, c.Detail)
		}
	}
	return r
}

func TestTable1(t *testing.T) {
	r := runChecked(t, "table1")
	if len(r.Rows) != 21 {
		t.Errorf("rows = %d", len(r.Rows))
	}
}

func TestTable2(t *testing.T) {
	r := runChecked(t, "table2")
	if len(r.Rows) != 4 {
		t.Errorf("rows = %d", len(r.Rows))
	}
}

func TestTable3(t *testing.T) {
	r := runChecked(t, "table3")
	if len(r.Rows) != 5 {
		t.Errorf("rows = %d", len(r.Rows))
	}
	// The app-runtime row must be ~202.7 at every scale.
	for _, cell := range r.Rows[0][1:] {
		if !strings.HasPrefix(cell, "202.7") {
			t.Errorf("app runtime cell = %q", cell)
		}
	}
}

func TestTable4(t *testing.T) {
	r := runChecked(t, "table4")
	if len(r.Rows) != 7 {
		t.Errorf("rows = %d, want 7 mechanisms", len(r.Rows))
	}
}

func TestFig1(t *testing.T) {
	r := runChecked(t, "fig1")
	if len(r.Series) != 1 || r.Series[0].Len() == 0 {
		t.Fatal("no series")
	}
}

func TestFig2(t *testing.T) {
	r := runChecked(t, "fig2")
	// node card total + at least 4 distinct domain series (three of the 7
	// map onto the shared interconnect component)
	if len(r.Series) < 5 {
		t.Errorf("series = %d, want node-card total plus domains", len(r.Series))
	}
	if r.Series[0].Name != "Node Card Power" {
		t.Errorf("first series = %q", r.Series[0].Name)
	}
}

func TestFig3(t *testing.T) {
	r := runChecked(t, "fig3")
	if len(r.Series) != 1 {
		t.Fatal("series count")
	}
	// 70 s at 100 ms minus the first baseline poll
	if n := r.Series[0].Len(); n < 650 || n > 710 {
		t.Errorf("samples = %d", n)
	}
}

func TestFig4(t *testing.T) {
	r := runChecked(t, "fig4")
	if n := r.Series[0].Len(); n < 115 || n > 130 {
		t.Errorf("samples = %d over 12.5 s at 100 ms", n)
	}
}

func TestFig5(t *testing.T) {
	r := runChecked(t, "fig5")
	if len(r.Series) != 2 {
		t.Fatalf("series = %d, want power + temperature", len(r.Series))
	}
	if r.Series[1].Unit != "degC" {
		t.Errorf("second series unit = %q", r.Series[1].Unit)
	}
}

func TestFig6(t *testing.T) {
	r := runChecked(t, "fig6")
	if len(r.Rows) != 3 {
		t.Errorf("rows = %d, want 3 collection paths", len(r.Rows))
	}
}

func TestFig7(t *testing.T) {
	r := runChecked(t, "fig7")
	if len(r.Boxes) != 2 {
		t.Fatalf("boxes = %d", len(r.Boxes))
	}
	if r.Boxes[0].Med <= r.Boxes[1].Med {
		t.Errorf("API median %.2f <= daemon median %.2f", r.Boxes[0].Med, r.Boxes[1].Med)
	}
}

func TestFig8(t *testing.T) {
	r := runChecked(t, "fig8")
	if len(r.Series) != 1 || r.Series[0].Len() == 0 {
		t.Fatal("no series")
	}
}

func TestAblations(t *testing.T) {
	for _, id := range []string{"ablation-msr-vs-perf", "ablation-scif-batch", "ablation-moneq-interval", "ablation-envdb-capacity"} {
		runChecked(t, id)
	}
}

func TestTable5Tools(t *testing.T) {
	r := runChecked(t, "table5-tools")
	if len(r.Rows) != 4 {
		t.Errorf("rows = %d, want 4 tools", len(r.Rows))
	}
}

func TestAblationWrap(t *testing.T) {
	if testing.Short() {
		t.Skip("4-hour horizon integration; skipped in -short")
	}
	runChecked(t, "ablation-rapl-wrap")
}

func TestRenderAllProducesText(t *testing.T) {
	for _, id := range []string{"table1", "table2", "fig6"} {
		r, err := Run(id, testSeed)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := r.Render(&b); err != nil {
			t.Fatalf("%s render: %v", id, err)
		}
		if !strings.Contains(b.String(), r.Title) {
			t.Errorf("%s render missing title", id)
		}
	}
}

func TestResultsDeterministicAcrossRuns(t *testing.T) {
	render := func() string {
		r, err := Run("fig3", testSeed)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := r.Render(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if a, b := render(), render(); a != b {
		t.Fatal("fig3 output differs between identical runs")
	}
}

func TestDifferentSeedsDifferentData(t *testing.T) {
	r1, _ := Run("fig4", 1)
	r2, _ := Run("fig4", 2)
	same := 0
	for i := range r1.Series[0].Samples {
		if r1.Series[0].Samples[i].V == r2.Series[0].Samples[i].V {
			same++
		}
	}
	if same == r1.Series[0].Len() {
		t.Error("different seeds produced identical traces")
	}
}

func TestPassedHelper(t *testing.T) {
	r := Result{Checks: nil}
	if !r.Passed() {
		t.Error("no checks should pass")
	}
	r.Checks = append(r.Checks, check("x", false, ""))
	if r.Passed() {
		t.Error("failed check not detected")
	}
}

func TestExperimentsRunQuickly(t *testing.T) {
	// Guard the harness's usability: the fastest figures must run in well
	// under a second of wall time each.
	start := time.Now()
	if _, err := Run("fig4", testSeed); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("fig4 took %v", elapsed)
	}
}
