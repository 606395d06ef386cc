package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

// plan fixes a run's sizes. Every workload is fixed work — a seeded
// sequence of operations whose length depends on the plan alone — so the
// counts repeat exactly and both sides of a later comparison do identical
// work.
//
// The contract this benchmark is run under wants every end-to-end metric
// from every workload, in a run of about -seconds seconds. So a run
// focused on one workload executes that workload's section at full size
// and, at companion size, the sections that own the metrics it does not
// produce itself (endToEnd.owner); the write section always runs, because
// query-direct serves its snapshot. A traced run executes all four,
// because the per-layer list spans all of them. Without a focus every
// section runs at full size.
type plan struct {
	Write     writeSizes
	Query     querySizes
	Fed       fedSizes
	Live      liveSizes
	SetupReps int
	Sections  map[string]bool
}

// baseSeconds is the -seconds value at which the scale is 1: the sizes
// below were tuned on the two-core build machine so that a focused
// untraced run then measures for about that long in total.
const baseSeconds = 20

// Full and companion sizes at baseSeconds. The full sizes are the issue's
// starting points scaled by roughly one half (one quarter for live-loop,
// whose cost is quadratic in its epoch count), because the contract's
// total-time cap leaves a focused run about 30 s of wall clock and the
// shared host sometimes runs at half speed. A companion section only has
// to populate the fast tail of each class it is asked for.
var (
	fullEpochs, companionEpochs = 40960, 12288 // 10 and 3 generations of the 4096-sample head ring
	fullQuery                   = [numClasses]int{opTopK: 1200, opRecent: 2000, opHistory: 150}
	companionQuery              = [numClasses]int{opTopK: 200, opRecent: 500, opHistory: 80}
	fullFed                     = [numClasses]int{opTopK: 300, opRecent: 200, opHistory: 500}
	companionFed                = [numClasses]int{opTopK: 100, opRecent: 80, opHistory: 150} // traced runs only
	fullLive, companionLive     = 60, 30                                                     // the companion in traced runs only
)

// newPlan sizes a run. scale multiplies every operation count; the data
// the operations run against (snapshot depth, head, fleet width) keeps its
// shape above scale 1 and shrinks with it below, so that -seconds and the
// tests' hundredth-size runs share one set of proportions.
func newPlan(focus string, scale float64, traced bool) (plan, error) {
	known := focus == ""
	for _, w := range workloadNames {
		known = known || w == focus
	}
	if !known {
		return plan{}, fmt.Errorf("unknown workload %q (have %v)", focus, workloadNames)
	}
	if scale <= 0 {
		return plan{}, fmt.Errorf("scale must be positive")
	}
	shape := func(v int) int { return max(int(math.Round(float64(v)*min(scale, 1))), 1) }
	n := func(full, companion int, workload string) int {
		if focus == "" || focus == workload {
			companion = full
		}
		return max(int(math.Round(float64(companion)*scale)), 1)
	}
	counts := func(full, companion [numClasses]int, workload string) (out [numClasses]int) {
		for c := range out {
			out[c] = n(full[c], companion[c], workload)
		}
		return out
	}
	p := plan{SetupReps: 3, Sections: map[string]bool{}}
	p.Write = writeSizes{Nodes: 16, Sensors: 16, Reopens: 1,
		Epochs: n(fullEpochs, companionEpochs, "ingest-durable"),
		// Two sealed ring generations plus a quarter-generation WAL tail.
		SnapshotEpoch: shape(9216)}
	if traced || focus == "" {
		// The one reopen every run makes is the durability check; reopen_ms
		// is a per-layer metric, so only a run that reports those pays for
		// a median.
		p.Write.Reopens = 5
	}
	p.Query = querySizes{HeadEpochs: shape(1024), Warmup: 8,
		Counts: counts(fullQuery, companionQuery, "query-direct")}
	p.Fed = fedSizes{Members: 4, Nodes: max(shape(2048), 16), Domains: 4, Points: 8, Warmup: 8,
		Counts: counts(fullFed, companionFed, "fed-fanout")}
	p.Live = liveSizes{Nodes: 16, ScrapeEvery: 10, Epochs: n(fullLive, companionLive, "live-loop")}
	for _, m := range endToEndMetrics {
		if w := m.owner(focus); w != "" {
			p.Sections[w] = true
		}
	}
	if traced || focus == "" {
		for _, w := range workloadNames {
			p.Sections[w] = true
		}
	}
	return p, nil
}

// runResult is one pass over the plan's sections.
type runResult struct {
	SetupS    float64    `json:"setup_s"`
	SetupAllS []float64  `json:"setup_all_s"`
	Sections  []*section `json:"sections"`
	// DecisionsSHA256 is the hash of live-loop's decision log: two passes
	// at one seed must agree on it.
	DecisionsSHA256 string `json:"decisions_sha256,omitempty"`
}

func (r *runResult) section(workload string) *section {
	for _, s := range r.Sections {
		if s.Workload == workload {
			return s
		}
	}
	return nil
}

// stacks are the serving stacks a run needs, built together so that one
// build is one sample of setup_s.
type stacks struct {
	direct *directStack
	fed    *fedStack
	live   *liveStack
}

func (s *stacks) close() error {
	var errs []error
	if s.direct != nil {
		errs = append(errs, s.direct.close())
	}
	if s.fed != nil {
		errs = append(errs, s.fed.close())
	}
	if s.live != nil {
		errs = append(errs, s.live.close())
	}
	*s = stacks{} // closing twice is harmless
	// Idle keep-alive connections to the servers just closed.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	return errors.Join(errs...)
}

func setupStacks(dir string, seed uint64, p plan, w *writeOut, tr *tracer) (*stacks, error) {
	s := &stacks{}
	var err error
	if p.Sections["query-direct"] {
		if s.direct, err = setupDirect(filepath.Join(dir, "query"), w, p.Query, tr); err != nil {
			s.close()
			return nil, err
		}
	}
	if p.Sections["fed-fanout"] {
		if s.fed, err = setupFed(seed, p.Fed, tr, nil); err != nil {
			s.close()
			return nil, err
		}
	}
	if p.Sections["live-loop"] {
		if s.live, err = setupLive(dir, seed, p.Live, tr); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// runPass executes the plan once under dir. tr is nil for the untraced
// pass, whose numbers are the end-to-end metrics; with a tracer the pass
// also records spans, derives the per-layer numbers from them and runs
// the probes.
func runPass(dir string, seed uint64, p plan, tr *tracer, log io.Writer) (*runResult, error) {
	res := &runResult{}
	fmt.Fprintf(log, "# ingest-durable: %d series x %d epochs\n", p.Write.Nodes*p.Write.Sensors, p.Write.Epochs)
	w, err := runWrite(dir, seed, p.Write, tr)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		if err := probeWrite(dir, w); err != nil {
			return nil, err
		}
	}
	res.Sections = append(res.Sections, &w.section)

	// Set-up: everything between the data existing and the first timed
	// request — open the snapshot, build the head, fill the fleet, start
	// the simulated cluster, bring the servers up, warm them. Built
	// SetupReps times so that setup_s is a median; the last build is used.
	var st *stacks
	for rep := 0; rep < p.SetupReps; rep++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		repDir := filepath.Join(dir, fmt.Sprintf("setup-%d", rep))
		if err := os.MkdirAll(repDir, 0o755); err != nil {
			return nil, err
		}
		start := time.Now()
		if st, err = setupStacks(repDir, seed, p, w, tr); err != nil {
			return nil, err
		}
		res.SetupAllS = append(res.SetupAllS, time.Since(start).Seconds())
	}
	defer st.close()
	res.SetupS = median(res.SetupAllS)

	// query-direct's requests run in two halves, before and after the
	// fed-fanout and live-loop sections, so that its samples span the run.
	var direct *readOut
	var directOps []op
	if d := st.direct; d != nil {
		fmt.Fprintf(log, "# query-direct: %v requests\n", p.Query.Counts)
		direct = newReadOut(&d.target)
		directOps = genOps(seed, p.Query.Counts, d.target.nodes)
		direct.run(directOps[:len(directOps)/2], tr)
	}
	var sections []*section
	if f := st.fed; f != nil {
		fmt.Fprintf(log, "# fed-fanout: %v requests over %d members\n", p.Fed.Counts, p.Fed.Members)
		if err := f.checkPartitionInvariant(); err != nil {
			return nil, err
		}
		out := newReadOut(&f.target)
		out.run(genOps(seed, p.Fed.Counts, f.target.nodes), tr)
		out.finish()
		if err := fedCounts(f, out); err != nil {
			return nil, err
		}
		if tr != nil {
			if err := readLayers(out); err != nil {
				return nil, err
			}
			if err := probeFed(f, out); err != nil {
				return nil, err
			}
		}
		sections = append(sections, &out.section)
	}
	if l := st.live; l != nil {
		fmt.Fprintf(log, "# live-loop: %d nodes x %d epochs\n", p.Live.Nodes, p.Live.Epochs)
		out, err := l.run(tr)
		if err != nil {
			return nil, err
		}
		res.DecisionsSHA256 = out.DecisionsSHA256
		sections = append(sections, &out.section)
	}
	if d := st.direct; d != nil {
		direct.run(directOps[len(directOps)/2:], tr)
		direct.finish()
		direct.Layers = append(direct.Layers, tail("recent_p99_ms", direct.latMS[opRecent], 99, "ms"))
		if err := d.bodyCounts(direct); err != nil {
			return nil, err
		}
		if tr != nil {
			if err := readLayers(direct); err != nil {
				return nil, err
			}
			if err := probeDirect(d, filepath.Join(w.sealedDir, "blocks"), direct); err != nil {
				return nil, err
			}
		}
		res.Sections = append(res.Sections, &direct.section)
	}
	res.Sections = append(res.Sections, sections...)
	return res, st.close()
}
