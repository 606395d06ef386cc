package telemetry

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"envmon/internal/trace"
)

// benchKeys builds n distinct series keys spread across nodes and the two
// power backends, mirroring the shape of a real cluster job.
func benchKeys(n int) []SeriesKey {
	keys := make([]SeriesKey, n)
	backends := []string{"MSR", "MICRAS daemon"}
	for i := range keys {
		keys[i] = SeriesKey{
			Node:    fmt.Sprintf("c%03d-%03d", i/32, i%32),
			Backend: backends[i%len(backends)],
			Domain:  "Total Power",
		}
	}
	return keys
}

// BenchmarkTelemetry_Ingest sweeps shard count × series count over the
// steady-state ingest path. The serial variants measure the allocation-free
// hot path; the parallel variants measure lock-stripe contention with every
// goroutine writing its own series, as concurrent clock domains do.
func BenchmarkTelemetry_Ingest(b *testing.B) {
	for _, shards := range []int{1, 8, 64} {
		for _, nseries := range []int{128, 1024} {
			name := fmt.Sprintf("shards=%d/series=%d", shards, nseries)
			b.Run(name, func(b *testing.B) {
				st := New(Options{Shards: shards})
				keys := benchKeys(nseries)
				for i, k := range keys { // first touch off the clock
					if err := st.Ingest(k, "W", 0, float64(i)); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k := keys[i%nseries]
					at := time.Duration(i/nseries+1) * time.Millisecond
					if err := st.Ingest(k, "W", at, float64(i)); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(name+"/parallel", func(b *testing.B) {
				st := New(Options{Shards: shards})
				keys := benchKeys(nseries)
				var goroutine atomic.Int64
				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					// Each goroutine owns a private stripe of series so
					// per-series time ordering holds without coordination.
					g := int(goroutine.Add(1) - 1)
					at, i := time.Duration(0), 0
					for pb.Next() {
						k := keys[(g*31+i)%nseries]
						k.Node += fmt.Sprintf("-g%d", g)
						if err := st.Ingest(k, "W", at, float64(i)); err != nil {
							b.Fatal(err)
						}
						i++
						if i%nseries == 0 {
							at += time.Millisecond
						}
					}
				})
			})
		}
	}
}

// BenchmarkTelemetry_Query sweeps shard count × series count over the query
// path: a wildcard rollup scan with aggregation, and the cluster-wide TopK
// ranking envmond serves.
func BenchmarkTelemetry_Query(b *testing.B) {
	for _, shards := range []int{1, 8, 64} {
		for _, nseries := range []int{128, 1024} {
			st := New(Options{Shards: shards, RawCapacity: 256})
			keys := benchKeys(nseries)
			for round := 0; round < 256; round++ {
				at := time.Duration(round) * 500 * time.Millisecond
				for i, k := range keys {
					if err := st.Ingest(k, "W", at, 100+float64(i%7)); err != nil {
						b.Fatal(err)
					}
				}
			}
			name := fmt.Sprintf("shards=%d/series=%d", shards, nseries)
			b.Run(name+"/window", func(b *testing.B) {
				q := Query{
					Domain:     "Total Power",
					From:       30 * time.Second,
					To:         90 * time.Second,
					Resolution: Res1s,
					Aggregate:  AggMean,
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if frames := st.Query(q); len(frames) != nseries {
						b.Fatalf("frames = %d, want %d", len(frames), nseries)
					}
				}
			})
			b.Run(name+"/topk", func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ranked, _ := st.TopK(10, "", 0, 0, Res10s)
					if len(ranked) != 10 {
						b.Fatalf("ranked = %d, want 10", len(ranked))
					}
				}
			})
		}
	}
}

// BenchmarkCursorFlush is one epoch barrier of live-loop without the 30 s
// harness: 320 series, each handing over a run of 20–34 samples, into a
// journaled store and into a memory-only one. Stores are built and every
// series first-touched off the clock, and rebuilt before any ring has taken
// a generation, so no seal is amortised in. ns/sample is the flush alone;
// ns/op also holds filling the sets.
func BenchmarkCursorFlush(b *testing.B) {
	const nseries, perSet = 320, 20 // 16 monitors of 20 series, as live-loop wires them
	for _, persistent := range []bool{true, false} {
		name := "memory"
		if persistent {
			name = "persistent"
		}
		b.Run(name, func(b *testing.B) {
			var st *Store
			var sets []*trace.Set
			var cursors []*SetCursor
			var at time.Duration
			fresh := func() {
				if st != nil {
					st.Close()
				}
				st = New(Options{})
				if persistent {
					var err error
					if st, err = Open(b.TempDir(), Options{}); err != nil {
						b.Fatal(err)
					}
				}
				sets, cursors, at = sets[:0], cursors[:0], 0
				for n := 0; n < nseries/perSet; n++ {
					set := trace.NewSet()
					for s := 0; s < perSet; s++ {
						set.Add(trace.NewSeries(fmt.Sprintf("MSR/Rail %d", s), "W")).MustAppend(0, 118)
					}
					sets = append(sets, set)
					cursors = append(cursors, NewSetCursor(st, fmt.Sprintf("c%03d-%03d", n/32, n%32), set))
					if err := cursors[n].Flush(); err != nil {
						b.Fatal(err)
					}
				}
			}
			defer func() { st.Close() }()
			var flushing time.Duration
			samples, generation := 0, Options{}.withDefaults().RawCapacity/34-1
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%generation == 0 {
					b.StopTimer()
					fresh()
					b.StartTimer()
				}
				for n, set := range sets {
					for s, ts := range set.Series {
						for run := 20 + (i+n+s)%15; run > 0; run-- {
							at += time.Millisecond
							ts.MustAppend(at, 118)
						}
						samples += len(ts.Samples)
					}
				}
				start := time.Now()
				for _, cur := range cursors {
					if err := cur.Flush(); err != nil {
						b.Fatal(err)
					}
				}
				flushing += time.Since(start)
			}
			b.ReportMetric(float64(flushing.Nanoseconds())/float64(samples), "ns/sample")
		})
	}
}
