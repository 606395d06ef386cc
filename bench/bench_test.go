package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"sort"
	"testing"
)

// TestTailRule pins the reporting rule for tails: the highest percentile
// with at least ten samples beyond it.
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10, 0}, {99, 0}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	m := tail("x_p99_ms", xs, 99, "ms")
	if m.Value != 380 || m.Samples != 400 || m.Note == "" {
		t.Errorf("400 samples: p99 fell back to %+v, want the p95 (380) with a note", m)
	}
	if m := tail("x_p90_ms", xs, 90, "ms"); m.Value != 360 || m.Note != "" {
		t.Errorf("400 samples: p90 = %+v, want 360 without a note", m)
	}
	if got := quantile(sorted([]float64{3, 1, 2}), 0.5); got != 2 {
		t.Errorf("median of 1,2,3 = %v", got)
	}
}

// TestSelfTimeOverlappingChildren: children that overlap each other, as
// parallel member calls do, are counted once, and a child is clipped to
// its parent.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "federation.serve.recent", Start: 0, End: 100, ID: 1},
		{Name: "httpapi.serve.recent", Start: 10, End: 40, ID: 2, Parent: 1},
		{Name: "httpapi.serve.recent", Start: 30, End: 60, ID: 3, Parent: 1},
		{Name: "httpapi.serve.recent", Start: 20, End: 35, ID: 4, Parent: 1},
		{Name: "httpapi.serve.recent", Start: 90, End: 120, ID: 5, Parent: 1},
		{Name: "telemetry.query", Start: 12, End: 20, ID: 6, Parent: 2},
	}
	self := selfTimes(spans)
	if self[1] != 40 { // 100 − ([10,60] ∪ [90,100])
		t.Errorf("parent self time = %d, want 40", self[1])
	}
	if self[2] != 22 || self[3] != 30 || self[6] != 8 {
		t.Errorf("child self times = %d %d %d, want 22 30 8", self[2], self[3], self[6])
	}
}

// TestRequestShuffleStable: the request mix is a function of the seed and
// the counts alone.
func TestRequestShuffleStable(t *testing.T) {
	counts := [numClasses]int{opTopK: 40, opRecent: 20, opHistory: 10}
	a, b := genOps(7, counts, 16), genOps(7, counts, 16)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different sequence")
	}
	if reflect.DeepEqual(a, genOps(8, counts, 16)) {
		t.Error("different seeds, same sequence")
	}
	var got [numClasses]int
	for _, o := range a {
		got[o.class]++
		if o.node < 0 || o.node >= 16 {
			t.Fatalf("history target %d out of range", o.node)
		}
	}
	if got != counts {
		t.Errorf("class counts %v, want %v", got, counts)
	}
	// The generator is math/rand/v2's PCG, whose stream the Go 1 promise
	// fixes: this prefix changes only if the harness changes its inputs.
	prefix := ""
	for _, o := range a[:12] {
		prefix += classNames[o.class][:1]
	}
	if want := shufflePrefix; prefix != want {
		t.Errorf("seed 7 starts %q, want %q", prefix, want)
	}
}

// TestStreamRegenerates: a sample is a pure function of (seed, epoch,
// series), which is what lets the checks recompute expected replies.
func TestStreamRegenerates(t *testing.T) {
	a, b := newStream(3, 4, 4), newStream(3, 4, 4)
	other := newStream(4, 4, 4)
	same := true
	for j := 0; j < 50; j++ {
		for ki := range a.keys {
			if a.value(j, ki) != b.value(j, ki) {
				t.Fatalf("epoch %d series %d differs at one seed", j, ki)
			}
			same = same && a.value(j, ki) == other.value(j, ki)
		}
	}
	if same {
		t.Error("two seeds generated the same values")
	}
	if a.keys[0].Domain != powerDomain || a.keys[4].Domain != powerDomain || a.keys[1].Domain == powerDomain {
		t.Errorf("sensor 0 of each node must be %s: %v", powerDomain, a.keys[:5])
	}
}

// TestPlanSections: an untraced focused run executes only the sections
// that own one of its metrics; a traced run executes all four.
func TestPlanSections(t *testing.T) {
	want := map[string][]string{
		"ingest-durable": {"ingest-durable", "query-direct"},
		"query-direct":   {"ingest-durable", "query-direct"},
		"fed-fanout":     {"ingest-durable", "query-direct", "fed-fanout"}, // history_p05_ms is query-direct's
		"live-loop":      {"ingest-durable", "query-direct", "live-loop"},
	}
	for focus, sections := range want {
		p, err := newPlan(focus, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Sections) != len(sections) {
			t.Errorf("%s untraced runs %v, want %v", focus, p.Sections, sections)
		}
		for _, s := range sections {
			if !p.Sections[s] {
				t.Errorf("%s untraced skips %s", focus, s)
			}
		}
		full := focus == "ingest-durable"
		if (p.Write.Epochs == fullEpochs) != full || (p.Write.Epochs == companionEpochs) == full || p.Write.Reopens != 1 {
			t.Errorf("%s: write section of %d epochs, %d reopens", focus, p.Write.Epochs, p.Write.Reopens)
		}
		// The named tails must be supported at the sizes the contract runs.
		if focus == "query-direct" && supportedTail(p.Query.Counts[opRecent]) < 99 {
			t.Errorf("%d recent requests do not support a p99", p.Query.Counts[opRecent])
		}
	}
	p, _ := newPlan("live-loop", 1, true)
	if len(p.Sections) != len(workloadNames) || p.Write.Reopens != 5 || p.Fed.Counts != companionFed {
		t.Errorf("traced run executes %v, %d reopens, fed %v", p.Sections, p.Write.Reopens, p.Fed.Counts)
	}
	if _, err := newPlan("nope", 1, false); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestWorkloadsSmall runs every workload at a hundredth of full size,
// traced, through the same code path as the real run: both passes, the
// span analysis with its 5 % self-time check, the probes, and all the
// correctness checks. It then holds the output to the glossary.
func TestWorkloadsSmall(t *testing.T) {
	o := options{seed: 5, trace: 1, dir: t.TempDir(), traceOut: t.TempDir() + "/spans.json"}
	p, err := newPlan("", 0.01, true)
	if err != nil {
		t.Fatal(err)
	}
	p.Write.Reopens = 2 // WAL replay is slow under the race detector
	doc, err := measurePlan(o, p, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []*runResult{doc.Untraced, doc.Traced} {
		if len(res.Sections) != len(workloadNames) {
			t.Fatalf("%d sections ran", len(res.Sections))
		}
		for _, s := range res.Sections {
			if s.Failed != 0 || s.Attempted == 0 {
				t.Errorf("%s: %d of %d operations failed", s.Workload, s.Failed, s.Attempted)
			}
		}
	}
	for _, focus := range workloadNames {
		doc.Workload = focus
		got, err := doc.endToEnd()
		if err != nil {
			t.Fatalf("focus %s: %v", focus, err)
		}
		for i, m := range got {
			if def := endToEndMetrics[i]; m.Name != def.Name || m.Unit != def.Unit {
				t.Errorf("focus %s: metric %d is %s %s, glossary says %s %s", focus, i, m.Name, m.Unit, def.Name, def.Unit)
			}
			if !(m.Value > 0) {
				t.Errorf("focus %s: %s = %v, an end-to-end metric is never 0", focus, m.Name, m.Value)
			}
		}
	}
	want := map[string]string{}
	for _, def := range perLayerMetrics {
		want[def.Name] = def.Unit
	}
	got := map[string]string{}
	for _, m := range doc.perLayer() {
		if _, dup := got[m.Name]; dup {
			t.Errorf("per-layer metric %s reported twice", m.Name)
		}
		got[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(got, want) {
		for name, unit := range want {
			if got[name] != unit {
				t.Errorf("glossary has %s %s, the run reported %q", name, unit, got[name])
			}
		}
		for name := range got {
			if _, ok := want[name]; !ok {
				t.Errorf("the run reported %s, which the glossary lacks", name)
			}
		}
	}
	var spans []span
	buf, err := os.ReadFile(o.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, &spans); err != nil || len(spans) == 0 {
		t.Fatalf("span file: %d spans, %v", len(spans), err)
	}
}

// TestBenchmarkJSONMatchesGlossary keeps BENCHMARK.json, which the
// benchmark contract reads, in step with the glossary the harness reports
// from.
func TestBenchmarkJSONMatchesGlossary(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != baseSeconds || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("run_seconds %d paths %v", doc.RunSeconds, doc.Paths)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	var e2e []entry
	for _, m := range endToEndMetrics {
		e2e = append(e2e, entry{m.Name, m.Unit, m.Better, m.Bound})
	}
	if !reflect.DeepEqual(doc.EndToEnd, e2e) {
		t.Errorf("end_to_end differs from the glossary:\n%v\n%v", doc.EndToEnd, e2e)
	}
	var layers, listed []entry
	for _, m := range perLayerMetrics {
		layers = append(layers, entry{m.Name, m.Unit, m.Better, 0})
	}
	listed = append(listed, doc.PerLayer...)
	for _, list := range [][]entry{layers, listed} {
		sort.Slice(list, func(i, j int) bool { return list[i].Name < list[j].Name })
	}
	if !reflect.DeepEqual(listed, layers) {
		t.Errorf("per_layer differs from the glossary:\n%v\n%v", listed, layers)
	}
	if len(doc.PerLayer) > 128 || len(doc.EndToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's 128 and 16", len(doc.PerLayer), len(doc.EndToEnd))
	}
}

const shufflePrefix = "rrhttttrtrtt"
