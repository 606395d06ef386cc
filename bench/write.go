package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"envmon/internal/telemetry"
)

// writeSizes parameterizes the ingest-durable section.
type writeSizes struct {
	Nodes, Sensors int
	Epochs         int // one Ingest (or IngestGap) per series per epoch
	SnapshotEpoch  int // file-level snapshot of the data directory before this epoch
	Reopens        int // timed telemetry.Open cycles on the snapshot
}

// writeOut is what the ingest-durable section leaves for the sections and
// probes after it.
type writeOut struct {
	section
	stream      *stream
	sizes       writeSizes
	snapshotDir string // the mid-ingest snapshot, never opened in place
	sealedDir   string // the finished store's directory, flushed and closed
	nsPerSample float64
}

// runWrite is the write path alone: one writer streams epochs into a
// persistent store the way a MonEQ epoch flush does — every series once
// per epoch, the caller blocked until the batch is acknowledged — while
// httpapi, client, federation and powercap do nothing. Store head, wal,
// compaction and the block codec do all the work.
func runWrite(dir string, seed uint64, sz writeSizes, tr *tracer) (*writeOut, error) {
	out := &writeOut{stream: newStream(seed, sz.Nodes, sz.Sensors), sizes: sz,
		snapshotDir: filepath.Join(dir, "snapshot"), sealedDir: filepath.Join(dir, "ingest")}
	out.Workload = "ingest-durable"
	out.Sizes = map[string]int{"series": sz.Nodes * sz.Sensors, "epochs": sz.Epochs,
		"snapshot_epoch": sz.SnapshotEpoch, "reopens": sz.Reopens}
	st, err := telemetry.Open(out.sealedDir, telemetry.Options{Shards: storeShards})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	reg := instrument(st)

	s := out.stream
	vals := make([]float64, len(s.keys))
	epochMS := make([]float64, 0, sz.Epochs)
	var ackedSamples, ackedGaps, snapSamples, snapGaps uint64
	var usage procUsage
	usage.start()
	for j := 0; j < sz.Epochs; j++ {
		if j == sz.SnapshotEpoch {
			// Outside the timed section: the writer is this goroutine, so
			// the copy sees exactly what has been acknowledged so far,
			// including the WAL tail no compaction has sealed yet.
			if err := copyTree(out.sealedDir, out.snapshotDir); err != nil {
				return nil, fmt.Errorf("snapshot: %w", err)
			}
			snapSamples, snapGaps = ackedSamples, ackedGaps
		}
		s.fill(vals, j)
		start := time.Now()
		id := tr.begin("telemetry.ingest.epoch", 0, j+1)
		gaps, err := s.ingestEpoch(st, j, vals)
		tr.end(id)
		epochMS = append(epochMS, float64(time.Since(start).Nanoseconds())/1e6)
		if err != nil {
			return nil, err
		}
		ackedGaps += uint64(gaps)
		ackedSamples += uint64(len(vals) - gaps)
	}
	var wallMS float64
	for _, ms := range epochMS {
		wallMS += ms
	}
	usage.stop()
	usage.report(&out.section)
	records := ackedSamples + ackedGaps
	out.WallS = wallMS / 1000
	out.Attempted = int(records)
	out.nsPerSample = wallMS * 1e6 / float64(records)

	sealStart := time.Now()
	id := tr.begin("telemetry.flush", 0, 0)
	if err := st.Flush(); err != nil {
		return nil, err
	}
	tr.end(id)
	sealMS := float64(time.Since(sealStart).Nanoseconds()) / 1e6
	stats := st.StorageStats()
	// WAL write volume as an operator would read it: from the store's own
	// /metrics exposition, before Close detaches the journal.
	snap, err := scrape(reg)
	if err != nil {
		return nil, err
	}
	walBytes, ok := snap.Value("envmon_wal_appended_bytes_total")
	if !ok {
		return nil, fmt.Errorf("store exposition has no envmon_wal_appended_bytes_total")
	}
	if got := st.Samples(); got != ackedSamples || st.Gaps() != ackedGaps {
		return nil, fmt.Errorf("store holds %d samples %d gaps, acknowledged %d and %d", got, st.Gaps(), ackedSamples, ackedGaps)
	}
	st.Close()

	out.e2e("flush_p05_ms", low(epochMS), "ms", len(epochMS))
	out.e2e("bytes_per_sample", float64(stats.BlockBytes)/float64(ackedSamples), "B", 0)

	// Foreground stalls: compaction and segment rotation run inline under
	// the shard lock, so they surface as epochs far slower than the median.
	asc := sorted(epochMS)
	med := quantile(asc, 0.5)
	var stalled float64
	for _, ms := range epochMS {
		if ms > 10*med {
			stalled += ms
		}
	}
	out.own("ingest_ksamples_per_s", float64(records)/wallMS, "ksamples/s", 0)
	out.own("flush_p50_ms", median(epochMS), "ms", len(epochMS))
	out.Layers = append(out.Layers, tail("flush_p99_ms", epochMS, 99, "ms"))
	out.layer("telemetry.durable_ns_per_sample", out.nsPerSample, "ns", 0)
	out.layer("telemetry.compactions", float64(stats.Compactions), "count", 0)
	out.layer("telemetry.stall_share", stalled/wallMS, "ratio", 0)
	out.layer("telemetry.flush_max_ms", asc[len(asc)-1], "ms", len(asc))
	out.layer("telemetry.seal_ms", sealMS, "ms", 1)
	out.layer("wal.bytes_per_sample", walBytes/float64(records), "B", 0)
	out.layer("block.files", float64(stats.Blocks), "count", 0)
	out.layer("block.write_amp", (walBytes+float64(stats.BlockBytes))/(16*float64(ackedSamples)), "ratio", 0)

	reopenMS, err := out.reopen(dir, snapSamples, snapGaps, tr)
	if err != nil {
		return nil, err
	}
	out.layer("reopen_ms", median(reopenMS), "ms", len(reopenMS))
	return out, nil
}

// reopen times telemetry.Open on fresh copies of the mid-ingest snapshot
// (WAL replay, block index load, sealing the replayed tail) and runs the
// durability check on the first of them: the reopened store must hold
// exactly what had been acknowledged when the snapshot was taken.
func (w *writeOut) reopen(dir string, samples, gaps uint64, tr *tracer) ([]float64, error) {
	var ms []float64
	for i := 0; i < w.sizes.Reopens; i++ {
		cp := filepath.Join(dir, fmt.Sprintf("reopen-%02d", i))
		if err := copyTree(w.snapshotDir, cp); err != nil {
			return nil, err
		}
		start := time.Now()
		id := tr.begin("telemetry.open", 0, 0)
		st, err := telemetry.Open(cp, telemetry.Options{Shards: storeShards})
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
		ms = append(ms, float64(time.Since(start).Nanoseconds())/1e6)
		if i == 0 {
			err = w.checkDurable(st, samples, gaps)
		}
		st.Close()
		if err != nil {
			return nil, err
		}
		if err := os.RemoveAll(cp); err != nil {
			return nil, err
		}
	}
	return ms, nil
}

// checkDurable is correctness check (a).
func (w *writeOut) checkDurable(st *telemetry.Store, samples, gaps uint64) error {
	if lost := st.StorageStats().Recovery.Lost; lost != 0 {
		return fmt.Errorf("durability: reopened snapshot lost %d journal records", lost)
	}
	if st.Samples() != samples || st.Gaps() != gaps {
		return fmt.Errorf("durability: reopened snapshot holds %d samples %d gaps, %d and %d were acknowledged before it",
			st.Samples(), st.Gaps(), samples, gaps)
	}
	s, upto := w.stream, w.sizes.SnapshotEpoch
	index := make(map[telemetry.SeriesKey]int, len(s.keys))
	for ki, key := range s.keys {
		index[key] = ki
	}
	for _, info := range st.Series() {
		ki, ok := index[info.Key]
		if !ok {
			return fmt.Errorf("durability: unknown series %v after reopen", info.Key)
		}
		want := s.samplesIn(ki, 0, upto)
		if int(info.Samples) != want || int(info.Gaps) != upto-want {
			return fmt.Errorf("durability: %v holds %d samples %d gaps, want %d and %d",
				info.Key, info.Samples, info.Gaps, want, upto-want)
		}
	}
	// Value-for-value on a few series: one per shard-ish stride.
	for ki := 0; ki < len(s.keys); ki += max(len(s.keys)/8, 1) {
		key := s.keys[ki]
		frames := st.Query(telemetry.Query{Node: key.Node, Backend: key.Backend, Domain: key.Domain})
		if len(frames) != 1 {
			return fmt.Errorf("durability: %v: %d frames", key, len(frames))
		}
		pts := frames[0].Points
		for j, n := 0, 0; j < upto; j++ {
			if s.gap(j, ki) {
				continue
			}
			if n >= len(pts) || pts[n].T != s.at(j) || pts[n].Last != s.value(j, ki) {
				return fmt.Errorf("durability: %v sample %d differs from what was acknowledged", key, n)
			}
			n++
		}
	}
	return nil
}
