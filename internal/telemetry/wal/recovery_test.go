package wal_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"envmon/internal/telemetry"
	"envmon/internal/telemetry/wal"
)

// allQueries is every resolution plus TopK: the store's whole read surface.
func allQueries(st *telemetry.Store) (frames [][]telemetry.Frame, top []telemetry.NodePower, total float64) {
	for _, res := range []telemetry.Resolution{telemetry.Raw, telemetry.Res1s, telemetry.Res10s, telemetry.Res60s} {
		frames = append(frames, st.Query(telemetry.Query{Resolution: res, Aggregate: telemetry.AggMean}))
	}
	top, total = st.TopK(10, "", 0, 0, telemetry.Res1s)
	return frames, top, total
}

// TestOpenAppliesTheOracleOrder: telemetry.Open on a seeded journal must
// recover what a store fed by direct ingest holds when it takes the
// oracle's records in the oracle's order under recovery's rule — a record
// is applied where its index is the series' next, counted lost where it is
// past it, skipped where it is below — with the Recovery counters that
// rule gives.
func TestOpenAppliesTheOracleOrder(t *testing.T) {
	seed := wal.ChaosSeed(t)
	for i := range int64(3) {
		dir := t.TempDir()
		wal.WriteJournal(t, filepath.Join(dir, "wal"), seed+i)
		samples, gaps := wal.OracleReplay(t, filepath.Join(dir, "wal"))

		ref := telemetry.New(telemetry.Options{Shards: 1, RawCapacity: 1 << 12, RollupCapacity: 1 << 10, GapCapacity: 1 << 10})
		var want telemetry.RecoveryStats
		next, series := map[telemetry.SeriesKey]uint64{}, map[telemetry.SeriesKey]bool{}
		for _, s := range samples {
			series[s.Key] = true
			switch {
			case s.Index == next[s.Key]:
				if err := ref.Ingest(s.Key, s.Unit, s.T, s.V); err != nil {
					t.Fatal(err)
				}
				next[s.Key]++
				want.Samples++
			case s.Index > next[s.Key]:
				want.Lost++
			}
		}
		clear(next)
		for _, g := range gaps {
			series[g.Key] = true
			switch {
			case g.Index == next[g.Key]:
				if err := ref.IngestGap(g.Key, g.Unit, g.T); err != nil {
					t.Fatal(err)
				}
				next[g.Key]++
				want.Gaps++
			case g.Index > next[g.Key]:
				want.Lost++
			}
		}
		want.Series = len(series)
		if want.Lost == 0 {
			t.Fatalf("CHAOS_SEED=%d journal %d: no record past its series' end", seed, i)
		}

		st, err := telemetry.Open(dir, telemetry.Options{Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		if got := st.StorageStats().Recovery; got != want {
			t.Fatalf("CHAOS_SEED=%d journal %d: Recovery = %+v, the oracle's order gives %+v", seed, i, got, want)
		}
		gf, gtop, gtotal := allQueries(st)
		wf, wtop, wtotal := allQueries(ref)
		if !reflect.DeepEqual(gf, wf) || !reflect.DeepEqual(gtop, wtop) || gtotal != wtotal {
			t.Fatalf("CHAOS_SEED=%d journal %d: the recovered store answers differently from direct ingest in the oracle's order", seed, i)
		}
		st.Close()
	}
}
