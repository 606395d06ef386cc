// Package experiments implements one reproducible experiment per table and
// figure of the paper's evaluation, plus the ablations called out in
// DESIGN.md. Each experiment builds its machinery from the simulation
// substrates, runs under a virtual clock with an explicit seed, and returns
// a Result carrying the regenerated table/series and a list of shape checks
// (the paper's qualitative claims, verified against the measured data).
//
// The same constructors back the `repro` command-line tool and the
// bench_test.go harness at the repository root.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"envmon/internal/report"
	"envmon/internal/stats"
	"envmon/internal/trace"
)

// Result is one regenerated paper artifact.
type Result struct {
	ID    string // "table1" ... "fig8", "ablation-..."
	Title string
	// Table content (nil Headers means no table).
	Headers []string
	Rows    [][]string
	// Figure content (nil means no chart).
	Series []*trace.Series
	// Boxplot content (Figure 7).
	BoxLabels []string
	Boxes     []stats.Boxplot
	// Shape checks: the paper's claims verified against measurements.
	Checks []report.Check
	// Notes: free-form commentary (substitutions, caveats).
	Notes []string
}

// Passed reports whether every shape check succeeded.
func (r Result) Passed() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// Render writes the result as text: title, table, chart, boxplots, checks,
// notes.
func (r Result) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title); err != nil {
		return err
	}
	if r.Headers != nil {
		if err := report.Table(w, r.Headers, r.Rows); err != nil {
			return err
		}
	}
	if len(r.Series) > 0 {
		if err := report.Chart(w, 100, 18, r.Series...); err != nil {
			return err
		}
	}
	if len(r.Boxes) > 0 {
		if err := report.Boxplot(w, 80, r.BoxLabels, r.Boxes); err != nil {
			return err
		}
	}
	if len(r.Checks) > 0 {
		fmt.Fprintln(w, "shape checks:")
		if err := report.Checks(w, r.Checks); err != nil {
			return err
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// check builds a report.Check from a condition and a detail format.
func check(name string, pass bool, format string, args ...any) report.Check {
	return report.Check{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)}
}

// Experiment is a registered, runnable paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(seed uint64) Result
}

var registry = map[string]Experiment{}

func register(id, title string, run func(seed uint64) Result) {
	registry[id] = Experiment{ID: id, Title: title, Run: run}
}

// IDs lists registered experiment IDs in a stable order (tables, figures,
// ablations).
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// Run executes one experiment by ID.
func Run(id string, seed uint64) (Result, error) {
	e, ok := registry[id]
	if !ok {
		return Result{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	return e.Run(seed), nil
}
