package telemetry

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"envmon/internal/simclock"
	"envmon/internal/telemetry/storage"
	"envmon/internal/trace"
)

// ingestDomains drives concurrent ingest from `domains` clock domains into
// a store: each domain owns `seriesPerDomain` series polled by its own
// timers — the last of them through a cursor, the others by Ingest — the
// group advances in lock-step epochs on one worker per domain, and values
// are a pure function of (series, time) so every run produces the same
// store contents.
func ingestDomains(t *testing.T, st *Store, domains, seriesPerDomain int, span time.Duration) {
	t.Helper()
	g := simclock.NewGroup(domains)
	var cursors []*SetCursor
	for d := 0; d < domains; d++ {
		clock := g.Clock(d)
		for s := 0; s < seriesPerDomain; s++ {
			k := SeriesKey{
				Node:    "dom" + string(rune('0'+d)) + "-n" + string(rune('0'+s)),
				Backend: "MSR",
				Domain:  "Total Power",
			}
			level := 100 + 10*float64(d) + float64(s)
			if s == seriesPerDomain-1 {
				// The domain's last series reaches the store the way a
				// monitor's do: recorded into a set on the domain's clock,
				// handed over in runs by a cursor flushed from that clock
				// every 70 ms — beside, and racing, the Ingest writers.
				set := trace.NewSet()
				ts := set.Add(trace.NewSeries(k.Backend+"/"+k.Domain, "W"))
				cur := NewSetCursor(st, k.Node, set)
				cursors = append(cursors, cur)
				clock.Every(10*time.Millisecond, func(now time.Duration) {
					ts.MustAppend(now, level+float64(now/(10*time.Millisecond)%7))
				})
				clock.Every(70*time.Millisecond, func(time.Duration) {
					if err := cur.Flush(); err != nil {
						t.Errorf("domain flush: %v", err)
					}
				})
				continue
			}
			clock.Every(10*time.Millisecond, func(now time.Duration) {
				v := level + float64(now/(10*time.Millisecond)%7)
				if err := st.Ingest(k, "W", now, v); err != nil {
					t.Errorf("domain ingest: %v", err)
				}
			})
		}
	}
	g.AdvanceEpochs(span, 100*time.Millisecond, domains, nil)
	for _, cur := range cursors { // what the last 70 ms left on the sets
		if err := cur.Flush(); err != nil {
			t.Errorf("final flush: %v", err)
		}
	}
}

// TestConcurrentDomainIngestAndQuery is the acceptance race gate: ≥ 4
// clock domains ingesting concurrently while queries run against the live
// store, under -race, with rollups identical at every shard count.
func TestConcurrentDomainIngestAndQuery(t *testing.T) {
	const domains, seriesPerDomain = 4, 4
	const span = 2 * time.Second

	var reference []Frame
	for _, shards := range []int{1, 3, 8} {
		st := New(Options{Shards: shards})

		// Concurrent readers hammer the store while the domains advance.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					// Series are created while these run, and each answer is
					// still in key order: the cached order is rebuilt, never
					// appended to.
					frames := st.Query(Query{Domain: "Total Power", Resolution: Res1s, Aggregate: AggMean})
					for i := 1; i < len(frames); i++ {
						if !storage.KeyLess(frames[i-1].Key, frames[i].Key) {
							t.Errorf("frames out of key order: %+v before %+v", frames[i-1].Key, frames[i].Key)
						}
					}
					st.TopK(3, "", 0, 0, Raw)
					series := st.Series()
					for i := 1; i < len(series); i++ {
						if !storage.KeyLess(series[i-1].Key, series[i].Key) {
							t.Errorf("series out of key order: %+v before %+v", series[i-1].Key, series[i].Key)
						}
					}
				}
			}()
		}
		ingestDomains(t, st, domains, seriesPerDomain, span)
		close(stop)
		wg.Wait()

		if got := st.NumSeries(); got != domains*seriesPerDomain {
			t.Fatalf("shards=%d: series = %d, want %d", shards, got, domains*seriesPerDomain)
		}
		frames := st.Query(Query{Resolution: Res1s, Aggregate: AggMean})
		if reference == nil {
			reference = frames
			// Sanity: timers fire at 10 ms..2 s, so every series holds
			// 200 polls in 1 s buckets of 99, 100, and 1 samples.
			for _, f := range frames {
				total := 0
				for _, p := range f.Points {
					total += p.Count
				}
				if len(f.Points) != 3 || total != 200 {
					t.Fatalf("series %+v: %d buckets, %d samples (want 3, 200)", f.Key, len(f.Points), total)
				}
			}
			continue
		}
		if !reflect.DeepEqual(reference, frames) {
			t.Fatalf("shards=%d: rollups diverged from shards=1 under concurrent ingest", shards)
		}
	}
}
