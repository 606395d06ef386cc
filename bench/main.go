// Command bench is the repository's one benchmark: four workloads over the
// real packages wired the way the three daemons wire them, end-to-end
// metrics from an untraced pass, per-layer metrics from a traced pass and
// from probes, and correctness checks that make the run fail when the
// stack's answers are wrong. See README.md in this directory.
//
//	go run ./bench                       every workload at full size
//	go run ./bench -workload live-loop   one workload at full size, companions beside it
//	go run ./bench -trace 1 -trace-out spans.json
//	go run ./bench -agree 2              repeatability of the benchmark itself
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// options are the command line.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	traceOut string
	out      string
	agree    int
	dir      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run at full size (default: all four)")
	flag.Uint64Var(&o.seed, "seed", 42, "workload seed: the same seed generates the same inputs")
	flag.IntVar(&o.seconds, "seconds", baseSeconds, "approximate measuring time of a focused run; scales every size")
	flag.IntVar(&o.trace, "trace", 0, "1 adds a traced pass and the probes, and reports the per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced pass's spans to this file as JSON")
	flag.StringVar(&o.out, "out", "", "write the result document to this file as JSON")
	flag.IntVar(&o.agree, "agree", 0, "run every workload this many times and check the runs agree (0 = off)")
	flag.StringVar(&o.dir, "dir", ".bench_build", "directory for the run's data (created; the run's subdirectory is removed)")
	flag.Parse()
	if flag.NArg() > 0 || o.trace < 0 || o.trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	var err error
	if o.agree > 0 {
		err = agree(o, os.Stdout)
	} else {
		var doc *document
		if doc, err = measure(o, os.Stdout); err == nil {
			err = doc.emit(o, os.Stdout)
		}
	}
	if err != nil {
		fatalf("%v", err)
	}
}

// document is what a run leaves behind: the numbers and what they were
// measured on.
type document struct {
	Commit     string         `json:"commit"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"nproc"`
	Seed       uint64         `json:"seed"`
	Workload   string         `json:"workload"` // the focus; "" when all four ran at full size
	Seconds    int            `json:"seconds"`
	WallS      float64        `json:"wall_s"`
	Untraced   *runResult     `json:"untraced"`
	Traced     *runResult     `json:"traced,omitempty"`
	Overhead   []metric       `json:"trace_overhead,omitempty"`
	Plan       map[string]any `json:"plan"`
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

// commit asks git; the benchmark also runs from plain checkouts.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// measure runs the plan: one untraced pass, and with -trace 1 a traced
// pass at the same seed whose difference from the first is the tracing
// overhead.
func measure(o options, log io.Writer) (*document, error) {
	p, err := newPlan(o.workload, float64(o.seconds)/baseSeconds, o.trace == 1)
	if err != nil {
		return nil, err
	}
	return measurePlan(o, p, log)
}

// measurePlan is measure with the plan given; the tests run a plan a
// hundredth the size.
func measurePlan(o options, p plan, log io.Writer) (*document, error) {
	traced := o.trace == 1
	var err error
	if traced {
		p.SetupReps = 1 // setup_s is an end-to-end metric; a traced run does not report it
	}
	doc := &document{Commit: commit(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), Seed: o.seed, Workload: o.workload, Seconds: o.seconds,
		Plan: map[string]any{"write": p.Write, "query": p.Query, "fed": p.Fed, "live": p.Live, "setup_reps": p.SetupReps}}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	start := time.Now()
	pass := func(tr *tracer) (*runResult, error) {
		dir, err := os.MkdirTemp(o.dir, "run-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		return runPass(dir, o.seed, p, tr, log)
	}
	if doc.Untraced, err = pass(nil); err != nil {
		return nil, err
	}
	if traced {
		tr := newTracer()
		if doc.Traced, err = pass(tr); err != nil {
			return nil, err
		}
		if o.traceOut != "" {
			if err := writeSpans(o.traceOut, tr.since(0)); err != nil {
				return nil, err
			}
		}
		if a, b := doc.Untraced.DecisionsSHA256, doc.Traced.DecisionsSHA256; a != b {
			return nil, fmt.Errorf("live-loop: decision logs of two passes at seed %d differ (%s, %s)", o.seed, a, b)
		}
		doc.Overhead = traceOverhead(doc.Untraced, doc.Traced)
	}
	doc.WallS = time.Since(start).Seconds()
	return doc, nil
}

// traceOverhead is, per workload, how much slower its first end-to-end
// metric reads with tracing on: traced ÷ untraced − 1 for a latency,
// untraced ÷ traced − 1 for a rate.
func traceOverhead(untraced, traced *runResult) []metric {
	var out []metric
	for _, s := range untraced.Sections {
		t := traced.section(s.Workload)
		if t == nil || len(s.EndToEnd) == 0 {
			continue
		}
		first := s.EndToEnd[0]
		with, _ := t.get(first.Name)
		share := with.Value/first.Value - 1
		for _, m := range endToEndMetrics {
			if m.Name == first.Name && m.Better == "higher" {
				share = first.Value/with.Value - 1
			}
		}
		out = append(out, metric{Name: "trace.overhead_share." + s.Workload, Value: share, Unit: "ratio"})
	}
	return out
}

// endToEnd resolves every end-to-end metric of the untraced pass to the
// section that owns it under the document's focus. Without a focus only
// the run-level metrics resolve here; the sections print their own.
func (d *document) endToEnd() ([]metric, error) {
	var out []metric
	for _, def := range endToEndMetrics {
		if def.owner(d.Workload) == "" {
			out = append(out, metric{Name: def.Name, Value: d.Untraced.SetupS, Unit: def.Unit, Samples: len(d.Untraced.SetupAllS)})
			continue
		}
		s := d.Untraced.section(def.owner(d.Workload))
		if s == nil {
			return nil, fmt.Errorf("metric %s: section %s did not run", def.Name, def.owner(d.Workload))
		}
		m, ok := s.get(def.Name)
		if !ok {
			return nil, fmt.Errorf("metric %s: section %s did not report it", def.Name, s.Workload)
		}
		out = append(out, m)
	}
	return out, nil
}

// perLayer is every per-layer metric of the traced pass.
func (d *document) perLayer() []metric {
	var out []metric
	for _, s := range d.Traced.Sections {
		out = append(out, s.Layers...)
	}
	return append(out, d.Overhead...)
}

// emit prints every metric by name with its unit, writes the -out
// document, and ends with the one-line JSON result the benchmark contract
// reads: the end-to-end metrics of an untraced run, the per-layer metrics
// of a traced one. A run whose operations failed still prints, and then
// fails.
func (d *document) emit(o options, w io.Writer) error {
	attempted, failed := 0, 0
	for _, s := range d.Untraced.Sections {
		fmt.Fprintf(w, "\n== %s  sizes %v  timed %.2f s  attempted %d failed %d\n", s.Workload, s.Sizes, s.WallS, s.Attempted, s.Failed)
		printMetrics(w, s.EndToEnd)
		fmt.Fprintf(w, "failed_share %v ratio\n", float64(s.Failed)/float64(s.Attempted))
		if d.Traced == nil {
			printMetrics(w, s.Layers)
		}
		attempted += s.Attempted
		failed += s.Failed
	}
	final, err := d.endToEnd()
	if err != nil {
		return err
	}
	if d.Traced != nil {
		final = d.perLayer()
		fmt.Fprintf(w, "\n== per layer (traced pass and probes)\n")
		printMetrics(w, final)
	} else if d.Workload != "" {
		fmt.Fprintf(w, "\n== end to end, focus %s\n", d.Workload)
		printMetrics(w, final)
	}
	fmt.Fprintf(w, "\nsetup_s %v s n=%d\nwall %.1f s  seed %d  %s  GOMAXPROCS %d  nproc %d  commit %s\n",
		d.Untraced.SetupS, len(d.Untraced.SetupAllS), d.WallS, d.Seed, d.GoVersion, d.GOMAXPROCS, d.NumCPU, d.Commit)
	if o.out != "" {
		buf, err := json.MarshalIndent(d, "", "  ")
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(o.out), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(buf, '\n'), 0o644); err != nil {
			return err
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for _, m := range final {
		line.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", buf)
	if failed > 0 {
		return fmt.Errorf("%d of %d operations failed", failed, attempted)
	}
	return nil
}
