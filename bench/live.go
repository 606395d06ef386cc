package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"envmon/internal/cluster"
	"envmon/internal/core"
	"envmon/internal/faults"
	"envmon/internal/obs"
	"envmon/internal/powercap"
	"envmon/internal/resilience"
	"envmon/internal/telemetry"
	"envmon/internal/telemetry/client"
	"envmon/internal/telemetry/httpapi"
	"envmon/internal/telemetry/storage"
	"envmon/internal/workload"
)

// liveSizes parameterizes the live-loop section.
type liveSizes struct {
	Nodes       int
	Epochs      int // measured epochs, one decision each
	ScrapeEvery int // Registry.WriteText every this many epochs
}

// readerReq offsets goroutine 2's request numbers past the epoch numbers
// goroutine 1 uses, so spans of the two never share a req.
const readerReq = 1_000_000

const (
	liveEpoch   = time.Second
	liveDomains = 4                // envmond's -shards default
	liveStores  = 2                // node i lands on store i mod 2
	liveFaults  = "transient=0.05" // absorbed by the resilience chains: no poll is lost
)

// liveStack is a sample's whole life in one process: a simulated Stampede
// partition polled by MonEQ through fault-injected, resilience-wrapped
// collectors; cursors flushed at each epoch barrier into two persistent
// envmonds; an envfedd over them; and envcapd's ClientSource and
// Controller deciding on what the federation serves.
type liveStack struct {
	sizes   liveSizes
	domains *cluster.Domains
	cursors []*telemetry.SetCursor
	members []*member
	front   *front
	src     powercap.ClientSource
	ctrl    *powercap.Controller
	chains  []*resilience.Collector
	reader  *client.Client // goroutine 2's connection to member 0
	nodes   []string

	// observed responses, filled by the front's middleware on a traced run
	mu         sync.Mutex
	respBytes  []float64
	respPoints []float64
}

func setupLive(dir string, seed uint64, sz liveSizes, tr *tracer) (*liveStack, error) {
	l := &liveStack{sizes: sz}
	c, err := cluster.NewStampede(sz.Nodes, seed)
	if err != nil {
		return nil, err
	}
	c.Run(workload.PhiGauss(100*time.Second, 140*time.Second), 0, 50*time.Millisecond)
	l.domains = c.Domains(liveDomains)
	now := l.domains.Now

	var wrapMember, wrapFront func(http.Handler) http.Handler
	if tr != nil {
		wrapMember = func(h http.Handler) http.Handler { return tr.middleware("httpapi.serve", false, nil, h) }
		wrapFront = func(h http.Handler) http.Handler {
			return tr.middleware("federation.serve", true, func(_ int, b, p int64) {
				l.mu.Lock()
				l.respBytes = append(l.respBytes, float64(b))
				l.respPoints = append(l.respPoints, float64(p))
				l.mu.Unlock()
			}, h)
		}
	}
	urls := make([]string, liveStores)
	for i := range urls {
		st, err := telemetry.Open(filepath.Join(dir, fmt.Sprintf("live-%d", i)), telemetry.Options{Shards: storeShards})
		if err != nil {
			l.close()
			return nil, err
		}
		m, err := serveStore(st, instrument(st), now, wrapMember)
		if err != nil {
			st.Close()
			l.close()
			return nil, err
		}
		l.members = append(l.members, m)
		urls[i] = m.url
	}
	// envmond registers its collectors' metrics beside its store's; with
	// two stores the collectors share store 0's registry.
	collReg := l.members[0].reg

	plan, err := faults.ParsePlan(liveFaults, seed)
	if err != nil {
		l.close()
		return nil, err
	}
	job, err := l.domains.StartJob(cluster.DomainJobConfig{
		Registry:   obs.Decorate(faults.Decorate(core.DefaultRegistry, plan), collReg, obs.NewTracer(collReg)),
		Resilience: &resilience.Policy{},
		OnResilience: func(_ string, chains []*resilience.Collector) {
			l.chains = append(l.chains, chains...)
		},
	})
	if err != nil {
		l.close()
		return nil, err
	}
	for i, m := range job.Monitors() {
		l.cursors = append(l.cursors, telemetry.NewSetCursor(l.members[i%liveStores].store, m.Node(), m.Set()))
		l.nodes = append(l.nodes, m.Node())
	}

	if l.front, err = serveFederation(urls, wrapFront); err != nil {
		l.close()
		return nil, err
	}
	// envcapd's flag defaults: 5 s lookback, 2 s per-query deadline. The
	// budget sits far above the fleet's peak draw, so the controller stays
	// nominal and the decision log depends on the telemetry alone.
	l.src = powercap.ClientSource{Client: client.New(l.front.url), Window: window, Deadline: 2 * time.Second}
	if l.ctrl, err = powercap.New(powercap.Config{BudgetW: 1000 * float64(sz.Nodes)}); err != nil {
		l.close()
		return nil, err
	}
	l.reader = client.New(l.members[0].url)

	// One unmeasured epoch: series exist, connections are up, every layer
	// has run once.
	var werr error
	l.domains.AdvanceEpochs(liveEpoch, liveEpoch, 0, func(now time.Duration) {
		if werr = l.flush(); werr != nil {
			return
		}
		if d := l.ctrl.Step(l.src.Observe(context.Background(), now)); !d.Fresh {
			werr = fmt.Errorf("live-loop: warm-up decision not fresh: %s", d.Reason)
		}
	})
	if werr != nil {
		l.close()
		return nil, werr
	}
	return l, nil
}

func (l *liveStack) flush() error {
	for _, cur := range l.cursors {
		if err := cur.Flush(); err != nil {
			return err
		}
	}
	return nil
}

func (l *liveStack) close() error {
	var errs []error
	if l.front != nil {
		errs = append(errs, l.front.close())
	}
	for _, m := range l.members {
		errs = append(errs, m.close())
	}
	return errors.Join(errs...)
}

func (l *liveStack) landed() uint64 {
	var n uint64
	for _, m := range l.members {
		n += m.store.Samples() + m.store.Gaps()
	}
	return n
}

// liveOut adds the replay artifact to the section: two runs at one seed
// must render the same decision log.
type liveOut struct {
	section
	DecisionsSHA256 string
}

// run measures the loop. Goroutine 1 (the caller) is the control path:
// advance one epoch, flush every cursor at the barrier, observe through
// the federation, decide. Goroutine 2 reads one node's history from
// member 0 back to back until goroutine 1 is done, so ingest and the
// decision's own query contend with a reader for the store's shard locks
// and for the second core.
//
// ClientSource sends an unwindowed /query, and a persistent store answers
// it with its whole history, so the decision's cost grows with every
// epoch. That is what envcapd does against envmond -data-dir; the harness
// leaves it visible and fixes the epoch count so that a faster simulator
// cannot change how much history a decision scans.
func (l *liveStack) run(tr *tracer) (*liveOut, error) {
	out := &liveOut{}
	out.Workload = "live-loop"
	out.Sizes = map[string]int{"nodes": l.sizes.Nodes, "epochs": l.sizes.Epochs, "stores": liveStores, "clock_domains": liveDomains}
	tr.resetOpen()
	ctx := context.Background()
	l.mu.Lock()
	l.respBytes, l.respPoints = nil, nil // drop the warm-up epoch's response
	l.mu.Unlock()

	stop := make(chan struct{})
	var readerMS []float64
	readerFailed := 0
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		lastPoints := make(map[string]int)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			node := l.nodes[(i*liveStores)%len(l.nodes)] // even monitors live on member 0
			var points int
			var err error
			start := time.Now()
			tr.call("client", opHistory, readerReq+i, func() {
				var doc httpapi.QueryResult
				doc, err = l.reader.QueryFull(ctx, client.QueryParams{Node: node, Domain: powerDomain})
				for _, f := range doc.Frames {
					points += len(f.Points)
				}
				if err == nil && len(doc.Frames) == 0 {
					err = fmt.Errorf("no frames for %s", node)
				}
			})
			ms := float64(time.Since(start).Nanoseconds()) / 1e6
			// A node's history only grows.
			if err == nil && points < lastPoints[node] {
				err = fmt.Errorf("history of %s shrank from %d to %d points", node, lastPoints[node], points)
			}
			if err != nil {
				readerFailed++
				fmt.Printf("# live-loop reader: %v\n", err)
				continue
			}
			lastPoints[node] = points
			readerMS = append(readerMS, ms)
		}
	}()

	var advanceMS, flushMS, observeMS, stepUS, decisionMS, scrapeMS, ageMS []float64
	notFresh := 0
	var loopErr error
	before := l.landed()
	var usage procUsage
	usage.start()
	for e := 1; e <= l.sizes.Epochs && loopErr == nil; e++ {
		var barrier time.Duration
		start := time.Now()
		l.domains.AdvanceEpochs(l.domains.Now()+liveEpoch, liveEpoch, 0, func(now time.Duration) {
			b0 := time.Now()
			id := tr.begin("telemetry.cursor_flush", 0, e)
			loopErr = l.flush()
			tr.end(id)
			b1 := time.Now()
			var o powercap.Observation
			tr.call("powercap.observe", opRecent, e, func() { o = l.src.Observe(ctx, now) })
			b2 := time.Now()
			id = tr.begin("powercap.step", 0, e)
			d := l.ctrl.Step(o)
			tr.end(id)
			b3 := time.Now()
			if !d.Fresh {
				notFresh++
			}
			if e%l.sizes.ScrapeEvery == 0 {
				for _, m := range l.members {
					if err := m.reg.WriteText(io.Discard); err != nil && loopErr == nil {
						loopErr = err
					}
				}
				scrapeMS = append(scrapeMS, float64(time.Since(b3).Nanoseconds())/1e6/float64(len(l.members)))
			}
			barrier = time.Since(b0)
			flushMS = append(flushMS, float64(b1.Sub(b0).Nanoseconds())/1e6)
			observeMS = append(observeMS, float64(b2.Sub(b1).Nanoseconds())/1e6)
			stepUS = append(stepUS, float64(b3.Sub(b2).Nanoseconds())/1e3)
			decisionMS = append(decisionMS, float64(b3.Sub(b0).Nanoseconds())/1e6)
			ageMS = append(ageMS, float64(o.Age.Nanoseconds())/1e6)
		})
		advanceMS = append(advanceMS, float64((time.Since(start)-barrier).Nanoseconds())/1e6)
	}
	wall := time.Since(usage.started)
	close(stop)
	wg.Wait()
	usage.stop()
	usage.report(&out.section)
	tr.resetOpen()
	if loopErr != nil {
		return nil, fmt.Errorf("live-loop: %w", loopErr)
	}
	records := l.landed() - before
	out.WallS = wall.Seconds()
	out.Attempted = l.sizes.Epochs + len(readerMS) + readerFailed
	out.Failed = notFresh + readerFailed

	// The cursor flush does the same work every epoch, so it has a fast
	// tail to take; a decision scans one more epoch of history than the
	// one before it, so the epochs are a ramp and the p90 is the cost near
	// the end of the run, reported at any epoch count.
	out.e2e("flush_p05_ms", low(flushMS), "ms", len(flushMS))
	out.layer("sim_rate", float64(l.sizes.Epochs)*liveEpoch.Seconds()/wall.Seconds(), "sim-s/wall-s", 0)
	out.layer("sample_to_decision_p50_ms", median(decisionMS), "ms", len(decisionMS))
	out.layer("sample_to_decision_p90_ms", quantile(sorted(decisionMS), 0.9), "ms", len(decisionMS))
	out.own("ingest_ksamples_per_s", float64(records)/wall.Seconds()/1000, "ksamples/s", 0)
	out.own("flush_p50_ms", median(flushMS), "ms", len(flushMS))

	var advanceSum, flushSum float64
	for i := range advanceMS {
		advanceSum += advanceMS[i]
		flushSum += flushMS[i]
	}
	epochs := float64(l.sizes.Epochs)
	out.layer("cluster.advance_ms_per_epoch", median(advanceMS), "ms", len(advanceMS))
	out.layer("cluster.samples_per_epoch", float64(records)/epochs, "count", 0)
	out.layer("cluster.advance_ns_per_sample", advanceSum*1e6/float64(records), "ns", 0)
	var rs resilience.Stats
	for _, ch := range l.chains {
		s := ch.Stats()
		rs.Polls += s.Polls
		rs.Retries += s.Retries
		rs.Fallbacks += s.Fallbacks
		rs.Dropped += s.Dropped
	}
	out.layer("resilience.retries", float64(rs.Retries), "count", 0)
	out.layer("resilience.fallbacks", float64(rs.Fallbacks), "count", 0)
	out.layer("resilience.poll_success_share", float64(rs.Polls-rs.Dropped)/float64(rs.Polls+rs.Retries), "ratio", 0)
	var gaps uint64
	for _, m := range l.members {
		gaps += m.store.Gaps()
	}
	out.layer("faults.gaps", float64(gaps), "count", 0)
	out.layer("telemetry.cursor_flush_ms_per_epoch", flushSum/epochs, "ms", len(flushMS))
	out.layer("live.flush_p90_ms", quantile(sorted(flushMS), 0.9), "ms", len(flushMS))
	out.layer("powercap.observe_ms", median(observeMS), "ms", len(observeMS))
	out.layer("powercap.step_us", median(stepUS), "us", len(stepUS))
	out.layer("powercap.fresh_share", float64(l.sizes.Epochs-notFresh)/epochs, "ratio", 0)
	out.layer("powercap.data_age_ms", median(ageMS), "ms", len(ageMS))
	out.layer("obs.scrape_ms", median(scrapeMS), "ms", len(scrapeMS))
	out.layer("live.reader_queries", float64(len(readerMS)), "count", 0)
	out.layer("live.reader_p50_ms", median(readerMS), "ms", len(readerMS))
	l.mu.Lock()
	if len(l.respBytes) > 0 {
		out.layer("powercap.observe_resp_kb", median(l.respBytes)/1024, "KiB", len(l.respBytes))
		out.layer("powercap.points_per_observe", median(l.respPoints), "count", len(l.respPoints))
	}
	l.mu.Unlock()

	if err := l.checkLastDecision(); err != nil {
		return nil, err
	}
	var csv bytes.Buffer
	if err := l.ctrl.Log().WriteCSV(&csv); err != nil {
		return nil, err
	}
	sum := sha256.Sum256(csv.Bytes())
	out.DecisionsSHA256 = hex.EncodeToString(sum[:])
	return out, nil
}

// checkLastDecision is the middle of correctness check (d): the watts the
// last decision acted on, which travelled store → httpapi → federation →
// client → ClientSource, equal the same sum taken straight from the two
// stores. Nothing has been ingested since that decision.
func (l *liveStack) checkLastDecision() error {
	decisions := l.ctrl.Log().Decisions()
	last := decisions[len(decisions)-1]
	var frames []telemetry.Frame
	for _, m := range l.members {
		frames = append(frames, m.store.Query(telemetry.Query{Domain: powerDomain, Aggregate: telemetry.AggLast})...)
	}
	// The order ClientSource adds in: the federation's key-sorted merge.
	sort.Slice(frames, func(i, j int) bool { return storage.KeyLess(frames[i].Key, frames[j].Key) })
	var newest time.Duration
	for _, f := range frames {
		if n := len(f.Points); n > 0 && f.Points[n-1].T > newest {
			newest = f.Points[n-1].T
		}
	}
	var watts float64
	for _, f := range frames {
		if n := len(f.Points); f.ReducedOK && n > 0 && f.Points[n-1].T >= newest-window {
			watts += f.Reduced
		}
	}
	if watts != last.MeasuredW {
		return fmt.Errorf("live-loop: last decision measured %v W, the stores sum to %v W", last.MeasuredW, watts)
	}
	return nil
}
