package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestRenderGolden pins every experiment's rendering at seed 42 against
// testdata/<id>.golden: the shape checks hold what the paper claims, the
// golden files hold the exact numbers, so a change anywhere under an
// experiment (a vendor cost, a model constant, a chart) must be deliberate.
// `repro <id>` prints exactly this rendering, so a deliberate change is
// regenerated with
//
//	go run ./cmd/repro <id> > internal/experiments/testdata/<id>.golden
func TestRenderGolden(t *testing.T) {
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			r, err := Run(id, testSeed)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			if err := r.Render(&b); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", id+".golden")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if b.String() != string(want) {
				t.Errorf("%s rendering drifted from %s; if the change is deliberate, regenerate the file.\n--- got ---\n%s\n--- want ---\n%s",
					id, path, b.String(), want)
			}
		})
	}
}

// statusLine is EXPERIMENTS.md's one-line summary of `repro -all`.
var statusLine = regexp.MustCompile(`\*\*Status: ([^*]*)\.\*\*`)

// TestExperimentsStatusLine holds EXPERIMENTS.md's status line to what the
// experiments report at seed 42: passing and total shape checks, and the
// number of experiments.
func TestExperimentsStatusLine(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	m := statusLine.FindSubmatch(doc)
	if m == nil {
		t.Fatal("EXPERIMENTS.md has no **Status: ….** line")
	}
	pass, total := 0, 0
	for _, id := range IDs() {
		r, err := Run(id, testSeed)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range r.Checks {
			total++
			if c.Pass {
				pass++
			}
		}
	}
	want := fmt.Sprintf("%d/%d checks pass (%d experiments)", pass, total, len(IDs()))
	if got := string(m[1]); got != want {
		t.Errorf("EXPERIMENTS.md says %q, the experiments at seed %d give %q", got, testSeed, want)
	}
}
