package telemetry

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"envmon/internal/obs"
	"envmon/internal/trace"
)

func instrumented(t *testing.T, st *Store) (*obs.Registry, *obs.SlowLog) {
	t.Helper()
	reg := obs.NewRegistry()
	slow := obs.NewSlowLog(reg, time.Nanosecond, 16) // everything is slow
	st.Instrument(reg, obs.NewTracer(reg), slow)
	return reg, slow
}

func renderReg(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestInstrumentedMemoryStore(t *testing.T) {
	st := New(Options{Shards: 2, RawCapacity: 4})
	reg, slow := instrumented(t, st)
	key := SeriesKey{Node: "n01", Backend: "MSR", Domain: "Total Power"}
	for i := 0; i < 10; i++ {
		if err := st.Ingest(key, "W", time.Duration(i)*time.Second, 100+float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.IngestGap(key, "W", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := st.Ingest(key, "W", 0, 1); err != ErrOutOfOrder {
		t.Fatalf("out-of-order ingest = %v", err)
	}
	frames := st.Query(Query{Domain: "Total Power"})
	if len(frames) != 1 {
		t.Fatalf("frames = %d", len(frames))
	}

	out := renderReg(t, reg)
	for _, want := range []string{
		"envmon_ingest_samples_total 10",
		"envmon_ingest_gaps_total 1",
		"envmon_ingest_errors_total 1",
		"envmon_series 1",
		"envmon_ring_evicted_samples_total 6", // 10 ingested, ring holds 4
		"envmon_persisted_samples_total 0",
		`envmon_pipeline_ops_total{stage="query"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Memory-only store registers no persistence families.
	if strings.Contains(out, "envmon_wal_") || strings.Contains(out, "envmon_block_") {
		t.Errorf("memory store exposes persistence metrics:\n%s", out)
	}
	// The 1 ns threshold makes every query slow; check the log captured it.
	ops := slow.Snapshot()
	if len(ops) == 0 || ops[0].Kind != "query" {
		t.Fatalf("slow ops = %+v", ops)
	}
	if !strings.Contains(ops[0].Detail, `domain="Total Power"`) || !strings.Contains(ops[0].Detail, "frames=1") {
		t.Errorf("slow query detail = %q", ops[0].Detail)
	}
	if slow.Total() == 0 {
		t.Error("slow log total is zero")
	}
}

func TestInstrumentedPersistentStore(t *testing.T) {
	st, err := Open(t.TempDir(), Options{Shards: 2, RawCapacity: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg, slow := instrumented(t, st)
	key := SeriesKey{Node: "n01", Backend: "MSR", Domain: "Total Power"}
	for i := 0; i < 100; i++ {
		if err := st.Ingest(key, "W", time.Duration(i)*time.Second, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}

	// Five segments so far: one per shard at Open, one per shard when Open
	// rotated the recovered journal away, one for the shard Flush sealed —
	// all of one kind, and the exposition says which.
	mapped, fallback := 5, 0
	if !st.StorageStats().WALMapped {
		mapped, fallback = 0, 5
	}
	out := renderReg(t, reg)
	for _, want := range []string{
		"envmon_ingest_samples_total 100",
		"envmon_persisted_samples_total 100",
		"envmon_compactions_total 1",
		"envmon_block_files 1",
		"envmon_wal_rotations_total",
		"envmon_wal_appended_bytes_total",
		fmt.Sprintf("envmon_wal_mapped_segments_total %d\n", mapped),
		fmt.Sprintf("envmon_wal_fallback_segments_total %d\n", fallback),
		`envmon_pipeline_ops_total{stage="compaction"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Live WAL bytes are near-empty after Flush but appended bytes remember
	// the journaling volume.
	if strings.Contains(out, "envmon_wal_appended_bytes_total 0\n") {
		t.Errorf("appended bytes not counted:\n%s", out)
	}
	if !strings.Contains(out, "envmon_block_compression_ratio") {
		t.Errorf("compression ratio missing:\n%s", out)
	}
	// The slow log (1 ns threshold) must have seen the compaction.
	var sawCompaction bool
	for _, op := range slow.Snapshot() {
		if op.Kind == "compaction" {
			sawCompaction = true
		}
	}
	if !sawCompaction {
		t.Errorf("no compaction in slow ops: %+v", slow.Snapshot())
	}
}

// TestInstrumentedIngestZeroAlloc is the acceptance criterion: wiring the
// observability layer must not put allocations on the steady-state ingest
// path.
func TestInstrumentedIngestZeroAlloc(t *testing.T) {
	st := New(Options{})
	instrumented(t, st)
	key := SeriesKey{Node: "c401-003", Backend: "MSR", Domain: "Total Power"}
	if err := st.Ingest(key, "W", 0, 1); err != nil {
		t.Fatal(err)
	}
	next := time.Second
	allocs := testing.AllocsPerRun(1000, func() {
		if err := st.Ingest(key, "W", next, 118.0); err != nil {
			t.Fatal(err)
		}
		next += time.Second
	})
	if allocs != 0 {
		t.Errorf("instrumented ingest allocates %.1f per op, want 0", allocs)
	}
}

// benchIngest measures steady-state memory ingest; the instrumented
// variant wires the full observability layer first. Comparing the two is
// the self-overhead proof: the CI observability job runs the pair back
// to back in short rounds and fails when the median of the rounds'
// instrumented/plain ratios exceeds 1.10.
func benchIngest(b *testing.B, instrument bool) {
	st := New(Options{})
	if instrument {
		reg := obs.NewRegistry()
		st.Instrument(reg, obs.NewTracer(reg), obs.NewSlowLog(reg, 100*time.Millisecond, 64))
	}
	key := SeriesKey{Node: "c401-003", Backend: "MSR", Domain: "Total Power"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Ingest(key, "W", time.Duration(i)*time.Millisecond, 118.0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIngestPlain(b *testing.B)        { benchIngest(b, false) }
func BenchmarkIngestInstrumented(b *testing.B) { benchIngest(b, true) }

func TestInstrumentedJournaledIngestZeroAlloc(t *testing.T) {
	st, err := Open(t.TempDir(), Options{RawCapacity: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	instrumented(t, st)
	key := SeriesKey{Node: "c401-003", Backend: "MSR", Domain: "Total Power"}
	if err := st.Ingest(key, "W", 0, 1); err != nil {
		t.Fatal(err)
	}
	next := time.Second
	allocs := testing.AllocsPerRun(500, func() {
		if err := st.Ingest(key, "W", next, 118.0); err != nil {
			t.Fatal(err)
		}
		next += time.Second
	})
	if allocs != 0 {
		t.Errorf("instrumented journaled ingest allocates %.1f per op, want 0", allocs)
	}
}

// pipelineStage reads one stage's wall-clock histogram off the exposition.
func pipelineStage(t *testing.T, out, stage string) (sum float64, count int) {
	t.Helper()
	for _, field := range []struct {
		name string
		dst  any
	}{{"sum", &sum}, {"count", &count}} {
		prefix := fmt.Sprintf("envmon_pipeline_seconds_%s{stage=%q} ", field.name, stage)
		i := strings.Index(out, prefix)
		if i < 0 {
			t.Fatalf("exposition has no %s", prefix)
		}
		if _, err := fmt.Sscan(out[i+len(prefix):], field.dst); err != nil {
			t.Fatalf("%s: %v", prefix, err)
		}
	}
	return sum, count
}

// TestWALAppendSpansLeaveTheSealOut audits the auditor. A raw ring of the
// default 4096 presses exactly on the indexes the 1-in-1024 wal_append span
// samples, so a span that opens before journalReadyLocked swallows every
// pressed seal: a handful of millisecond compactions among some hundreds of
// sub-microsecond appends, counted in two stages at once. The append's
// histogram must hold appends alone — far less time than the compaction
// stage — at the same rate per sample whichever path the samples took.
func TestWALAppendSpansLeaveTheSealOut(t *testing.T) {
	const nseries, generations = 64, 3
	keys := benchKeys(nseries)
	perSeries := generations * Options{}.withDefaults().RawCapacity
	for _, path := range []string{"Ingest", "SetCursor.Flush"} {
		t.Run(path, func(t *testing.T) {
			st, err := Open(t.TempDir(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			reg, _ := instrumented(t, st)
			if path == "Ingest" {
				for i := 0; i < perSeries; i++ {
					for _, k := range keys {
						if err := st.Ingest(k, "W", time.Duration(i)*50*time.Millisecond, 118); err != nil {
							t.Fatal(err)
						}
					}
				}
			} else {
				set := trace.NewSet()
				for _, k := range keys {
					set.Add(trace.NewSeries(k.Backend+"/"+k.Node, "W")) // one series per key, whatever it is called
				}
				cur := NewSetCursor(st, "n0", set)
				for i := 0; i < perSeries; {
					run := min(20+i%15, perSeries-i) // 20–34, as an epoch of live-loop holds
					for ; run > 0; run, i = run-1, i+1 {
						for _, ts := range set.Series {
							ts.MustAppend(time.Duration(i)*50*time.Millisecond, 118)
						}
					}
					if err := cur.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if got := st.Samples(); got != uint64(nseries*perSeries) {
				t.Fatalf("%d samples landed, want %d", got, nseries*perSeries)
			}
			out := renderReg(t, reg)
			appendSum, appendCount := pipelineStage(t, out, "wal_append")
			sealSum, sealCount := pipelineStage(t, out, "compaction")
			if sealCount < st.opts.Shards*(generations-1) {
				t.Fatalf("%d compactions: the raw rings never pressed", sealCount)
			}
			if appendSum >= sealSum {
				t.Errorf("wal_append spans sum to %.6f s, compaction's to %.6f s: the append span holds seals", appendSum, sealSum)
			}
			if want := nseries * perSeries / 1024; appendCount < want-nseries || appendCount > want+nseries {
				t.Errorf("%d wal_append spans for %d samples in %d series, want one per 1024 (%d ± %d)", appendCount, nseries*perSeries, nseries, want, nseries)
			}
			t.Logf("wal_append: %d spans, %.6f s; compaction: %d spans, %.6f s", appendCount, appendSum, sealCount, sealSum)
		})
	}
}
