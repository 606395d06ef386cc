// Command moneq-report post-processes MonEQ output files — the "later
// processing" step the paper's tagging feature exists for: "sections of
// code to be wrapped in start/end tags which inject special markers in the
// output files for later processing".
//
// Usage:
//
//	moneq-report node0.csv             # summary of every series + tags
//	moneq-report -series "MSR/Total Power" -chart node0.csv
//	moneq-report -demo                  # generate a demo file and report it
//
// The input is the CSV format written by moneq.Config.Output.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"envmon/internal/core"
	"envmon/internal/moneq"
	"envmon/internal/rapl"
	"envmon/internal/report"
	"envmon/internal/simclock"
	"envmon/internal/stats"
	"envmon/internal/trace"
	"envmon/internal/workload"
)

func main() {
	var (
		seriesName = flag.String("series", "", "restrict to one series by name")
		chart      = flag.Bool("chart", false, "render an ASCII chart of the selected series")
		width      = flag.Int("width", 100, "chart width in columns")
		demo       = flag.Bool("demo", false, "generate a demo profile in memory and report it")
		interval   = flag.Duration("interval", 100*time.Millisecond, "demo profile polling interval")
	)
	flag.Parse()

	if *width <= 0 {
		fmt.Fprintln(os.Stderr, "moneq-report: -width must be positive")
		os.Exit(2)
	}
	if *interval <= 0 {
		fmt.Fprintln(os.Stderr, "moneq-report: -interval must be positive")
		os.Exit(2)
	}

	var set *trace.Set
	switch {
	case *demo:
		set = demoSet(*interval)
	case flag.NArg() == 1:
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "moneq-report:", err)
			os.Exit(1)
		}
		defer f.Close()
		if strings.HasSuffix(flag.Arg(0), ".json") {
			set, err = trace.ReadJSON(f)
		} else {
			set, err = trace.ReadCSV(f)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "moneq-report: parsing %s: %v\n", flag.Arg(0), err)
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: moneq-report [flags] <file.csv>  (or -demo)")
		os.Exit(2)
	}

	// Metadata header.
	if node := set.Meta["node"]; node != "" {
		fmt.Printf("node: %s (rank %s of %s, interval %s)\n\n",
			node, set.Meta["rank"], set.Meta["ntasks"], set.Meta["interval"])
	}

	// Per-series summary.
	var rows [][]string
	for _, s := range set.Series {
		if *seriesName != "" && s.Name != *seriesName {
			continue
		}
		d := stats.Describe(s.Values())
		rows = append(rows, []string{
			s.Name, s.Unit, fmt.Sprintf("%d", s.Len()),
			fmt.Sprintf("%.2f", d.Mean), fmt.Sprintf("%.2f", d.StdDev),
			fmt.Sprintf("%.2f", d.Min), fmt.Sprintf("%.2f", d.Max),
		})
	}
	if len(rows) == 0 {
		fmt.Fprintln(os.Stderr, "moneq-report: no matching series")
		os.Exit(1)
	}
	if err := report.Table(os.Stdout, []string{"Series", "Unit", "N", "Mean", "StdDev", "Min", "Max"}, rows); err != nil {
		fmt.Fprintln(os.Stderr, "moneq-report:", err)
		os.Exit(1)
	}

	// Tag windows with per-tag stats against the first matching series.
	if len(set.Tags) > 0 {
		fmt.Println("\ntagged sections:")
		var tagRows [][]string
		ref := set.Series[0]
		if *seriesName != "" {
			if s := set.Lookup(*seriesName); s != nil {
				ref = s
			}
		}
		for _, tag := range set.Tags {
			if tag.Open {
				tagRows = append(tagRows, []string{tag.Name, tag.Start.String(), "(open)", "-", "-"})
				continue
			}
			seg := ref.Clip(tag.Start, tag.End)
			tagRows = append(tagRows, []string{
				tag.Name, tag.Start.String(), tag.End.String(),
				fmt.Sprintf("%.2f %s", seg.MeanValue(), ref.Unit),
				fmt.Sprintf("%.0f J", seg.Energy()),
			})
		}
		if err := report.Table(os.Stdout, []string{"Tag", "Start", "End", "Mean", "Energy"}, tagRows); err != nil {
			fmt.Fprintln(os.Stderr, "moneq-report:", err)
			os.Exit(1)
		}
	}

	if *chart {
		fmt.Println()
		target := set.Series[0]
		if *seriesName != "" {
			if s := set.Lookup(*seriesName); s != nil {
				target = s
			}
		}
		if err := report.Chart(os.Stdout, *width, 14, target); err != nil {
			fmt.Fprintln(os.Stderr, "moneq-report:", err)
			os.Exit(1)
		}
	}
}

// demoSet profiles a short RAPL run with tags at the given polling
// interval and returns the resulting set, exercising the exact file format
// end to end.
func demoSet(interval time.Duration) *trace.Set {
	clock := simclock.New()
	socket := rapl.NewSocket(rapl.Config{Name: "demo", Seed: 42})
	socket.Run(workload.GaussElim(30*time.Second), 0)
	col, err := core.Build(rapl.MSR.Key, socket)
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	m, err := moneq.Initialize(moneq.Config{
		Clock: clock, Interval: interval,
		Node: "demo0", NumTasks: 1, Output: &buf,
	}, col)
	if err != nil {
		panic(err)
	}
	m.StartTag("factorize")
	clock.Advance(30 * time.Second)
	if err := m.EndTag("factorize"); err != nil {
		panic(err)
	}
	clock.Advance(5 * time.Second)
	if _, err := m.Finalize(); err != nil {
		panic(err)
	}
	set, err := trace.ReadCSV(&buf)
	if err != nil {
		panic(err)
	}
	return set
}
