package main

import (
	"fmt"
	"io"
	"math"
)

// countMetrics are counts, not timings: at one seed they must repeat
// exactly, or the workload is not the fixed work it claims to be.
var countMetrics = []string{
	"bytes_per_sample", "wal.bytes_per_sample", "telemetry.compactions", "block.write_amp",
	"httpapi.resp_bytes_per_point", "cluster.samples_per_epoch", "faults.gaps",
}

// agree measures the benchmark with itself: every workload at full size
// o.agree times at one seed. Each end-to-end timing and rate must stay
// within its own regression bound across the runs (a benchmark that
// cannot reproduce itself within the bound cannot judge a change by it),
// the count metrics and the decision log must be identical, and no
// operation may fail. A second seed must then pass the correctness checks.
func agree(o options, w io.Writer) error {
	if o.agree < 2 {
		return fmt.Errorf("-agree needs at least 2 runs")
	}
	o.workload, o.trace = "", 0
	var docs []*document
	for i := 0; i < o.agree; i++ {
		fmt.Fprintf(w, "# agree: run %d of %d at seed %d\n", i+1, o.agree, o.seed)
		doc, err := measure(o, w)
		if err != nil {
			return err
		}
		docs = append(docs, doc)
	}
	breaches := 0
	check := func(label string, bound float64, exact bool, values []float64) {
		lo, hi := values[0], values[0]
		for _, v := range values {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		spread := (hi - lo) / math.Abs(median(values))
		verdict := "ok"
		if (exact && hi != lo) || (!exact && spread > bound) {
			verdict = "BREACH"
			breaches++
		}
		if exact {
			fmt.Fprintf(w, "%-44s %v identical: %v %s\n", label, values[0], hi == lo, verdict)
		} else {
			fmt.Fprintf(w, "%-44s %v spread %.4f of bound %.2f %s\n", label, values, spread, bound, verdict)
		}
	}
	bounds := map[string]float64{}
	for _, m := range endToEndMetrics {
		bounds[m.Name] = m.Bound
	}
	isCount := map[string]bool{}
	for _, name := range countMetrics {
		isCount[name] = true
	}
	var setups []float64
	for _, d := range docs {
		setups = append(setups, d.Untraced.SetupS)
	}
	check("setup_s", bounds["setup_s"], false, setups)
	for _, s := range docs[0].Untraced.Sections {
		if s.Failed > 0 {
			return fmt.Errorf("%s: %d operations failed", s.Workload, s.Failed)
		}
		for _, m := range append(append([]metric(nil), s.EndToEnd...), s.Layers...) {
			bound, timed := bounds[m.Name]
			if !timed && !isCount[m.Name] {
				continue
			}
			var values []float64
			for _, d := range docs {
				other, ok := d.Untraced.section(s.Workload).get(m.Name)
				if !ok {
					return fmt.Errorf("%s: %s missing from a run", s.Workload, m.Name)
				}
				values = append(values, other.Value)
			}
			check(s.Workload+" "+m.Name, bound, isCount[m.Name], values)
		}
	}
	for _, d := range docs[1:] {
		if d.Untraced.DecisionsSHA256 != docs[0].Untraced.DecisionsSHA256 {
			fmt.Fprintf(w, "live-loop decision log differs between runs at seed %d BREACH\n", o.seed)
			breaches++
		}
	}
	o.seed++
	fmt.Fprintf(w, "# agree: correctness checks at a second seed, %d\n", o.seed)
	if _, err := measure(o, w); err != nil {
		return fmt.Errorf("seed %d: %w", o.seed, err)
	}
	if breaches > 0 {
		return fmt.Errorf("%d metrics did not agree across %d runs", breaches, o.agree)
	}
	return nil
}
