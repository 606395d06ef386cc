// Command repro regenerates the paper's tables and figures from the
// simulation.
//
// Usage:
//
//	repro -list                 # show available experiments
//	repro -backends             # show registered collector backends
//	repro table3 fig7           # run specific experiments
//	repro -all                  # run everything
//	repro -all -seed 7          # different noise seed
//	repro fig3 -csv out/        # also dump figure series as CSV
//
// Every experiment prints its regenerated table and/or an ASCII rendering
// of the figure, followed by the shape checks comparing the measurement
// against the paper's qualitative claims. The process exits non-zero if
// any check fails.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"envmon/internal/core"
	"envmon/internal/experiments"
	"envmon/internal/faults"
	"envmon/internal/report"
	"envmon/internal/trace"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list available experiments and exit")
		backends = flag.Bool("backends", false, "list registered collector backends and exit")

		all       = flag.Bool("all", false, "run every experiment")
		seed      = flag.Uint64("seed", 42, "simulation noise seed")
		faultSpec = flag.String("faults", "", "deterministic fault plan applied to every registry-built collector, e.g. 'transient=0.1,lose=NVML#0@60s'")
		csvDir    = flag.String("csv", "", "directory to write figure series as CSV (created if missing)")
		format    = flag.String("format", "csv", "series dump format: csv or json")
		svgDir    = flag.String("svg", "", "directory to write figure charts as SVG (created if missing)")
	)
	flag.Parse()

	if *faultSpec != "" {
		// Experiments build collectors through core.DefaultRegistry (core.Build
		// reads the package variable at call time), so decorating it here puts
		// a seeded fault injector in front of every registry-built collector —
		// a chaos drill over the same experiment code paths.
		plan, err := faults.ParsePlan(*faultSpec, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro: bad -faults: %v\n", err)
			os.Exit(2)
		}
		core.DefaultRegistry = faults.Decorate(core.DefaultRegistry, plan)
		fmt.Printf("fault injection active: %s\n", plan)
	}

	if *list {
		for _, id := range experiments.IDs() {
			e, _ := experiments.Lookup(id)
			fmt.Printf("%-24s %s\n", id, e.Title)
		}
		return
	}
	if *backends {
		// Importing the experiments package pulls in every vendor package,
		// whose init functions register their factories.
		for _, k := range core.DefaultRegistry.Keys() {
			fmt.Printf("%-12s %s\n", k.Platform, k.Method)
		}
		return
	}

	ids := flag.Args()
	if *all {
		ids = experiments.IDs()
	}
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "repro: nothing to run; pass experiment ids, -all, or -list")
		os.Exit(2)
	}

	failed := 0
	type rowSummary struct {
		id     string
		checks int
		passed bool
	}
	var summary []rowSummary
	for _, id := range ids {
		result, err := experiments.Run(id, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro: %v\n", err)
			os.Exit(2)
		}
		if err := result.Render(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "repro: rendering %s: %v\n", id, err)
			os.Exit(1)
		}
		summary = append(summary, rowSummary{id, len(result.Checks), result.Passed()})
		if !result.Passed() {
			failed++
		}
		if *csvDir != "" && len(result.Series) > 0 {
			if err := writeSeries(*csvDir, *format, result); err != nil {
				fmt.Fprintf(os.Stderr, "repro: %v\n", err)
				os.Exit(1)
			}
		}
		if *svgDir != "" && len(result.Series) > 0 {
			if err := writeSVG(*svgDir, result); err != nil {
				fmt.Fprintf(os.Stderr, "repro: %v\n", err)
				os.Exit(1)
			}
		}
	}
	if len(summary) > 1 {
		fmt.Println("== summary ==")
		total := 0
		for _, row := range summary {
			status := "PASS"
			if !row.passed {
				status = "FAIL"
			}
			fmt.Printf("  [%s] %-26s %d checks\n", status, row.id, row.checks)
			total += row.checks
		}
		fmt.Printf("  %d experiments, %d shape checks, %d failing\n", len(summary), total, failed)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "repro: %d experiment(s) had failing shape checks\n", failed)
		os.Exit(1)
	}
}

// writeSeries dumps an experiment's series to <dir>/<id>.<format>.
func writeSeries(dir, format string, r experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	set := trace.NewSet()
	set.Meta["experiment"] = r.ID
	set.Meta["title"] = r.Title
	for _, s := range r.Series {
		set.Add(s)
	}
	var encode func(io.Writer) error
	switch format {
	case "csv":
		encode = set.WriteCSV
	case "json":
		encode = set.WriteJSON
	default:
		return fmt.Errorf("unknown format %q (csv|json)", format)
	}
	path := filepath.Join(dir, r.ID+"."+format)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := encode(f); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	fmt.Printf("wrote %s\n", path)
	return f.Close()
}

// writeSVG renders an experiment's series as <dir>/<id>.svg, downsampled
// to keep documents manageable.
func writeSVG(dir string, r experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	series := make([]*trace.Series, 0, len(r.Series))
	for _, s := range r.Series {
		series = append(series, report.SVGDownsample(s, 2000))
	}
	path := filepath.Join(dir, r.ID+".svg")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := report.SVGChart(f, 900, 420, r.Title, series...); err != nil {
		return fmt.Errorf("rendering %s: %w", path, err)
	}
	fmt.Printf("wrote %s\n", path)
	return f.Close()
}
