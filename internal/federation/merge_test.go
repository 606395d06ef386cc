package federation

import (
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"envmon/internal/telemetry/httpapi"
)

func np(node string, watts float64, series int) httpapi.NodePower {
	return httpapi.NodePower{Node: node, Watts: watts, Series: series}
}

func TestMergeTopKKWayMergeAndTieBreak(t *testing.T) {
	// Two members with interleaved watts and an exact tie across members:
	// the tie must resolve by node name, not member arrival order.
	parts := []MemberTopK{
		{Member: "m1", Doc: httpapi.TopKResult{Nodes: []httpapi.NodePower{
			np("n3", 90, 1), np("n0", 50, 1), np("n5", 10, 1),
		}}},
		{Member: "m0", Doc: httpapi.TopKResult{Nodes: []httpapi.NodePower{
			np("n1", 90, 1), np("n2", 50, 1), np("n4", 20, 1),
		}}},
	}
	got := MergeTopK(parts, 0, "Total Power")
	want := []httpapi.NodePower{
		np("n1", 90, 1), np("n3", 90, 1), // 90-watt tie: node order
		np("n0", 50, 1), np("n2", 50, 1), // 50-watt tie: node order
		np("n4", 20, 1), np("n5", 10, 1),
	}
	if !reflect.DeepEqual(got.Nodes, want) {
		t.Fatalf("merged ranking:\n got %+v\nwant %+v", got.Nodes, want)
	}
	if got.TotalWatts != 90+90+50+50+20+10 {
		t.Fatalf("total = %v", got.TotalWatts)
	}
	if got.Domain != "Total Power" {
		t.Fatalf("domain = %q", got.Domain)
	}
}

func TestMergeTopKTruncatesAfterTotal(t *testing.T) {
	parts := []MemberTopK{
		{Member: "a", Doc: httpapi.TopKResult{Nodes: []httpapi.NodePower{
			np("x", 5, 1), np("y", 3, 1), np("z", 1, 1),
		}}},
	}
	got := MergeTopK(parts, 2, "d")
	if len(got.Nodes) != 2 {
		t.Fatalf("want 2 nodes, got %d", len(got.Nodes))
	}
	// The total covers every node, not just the k returned.
	if got.TotalWatts != 9 {
		t.Fatalf("total = %v, want 9 (truncation must not change the total)", got.TotalWatts)
	}
}

func TestMergeTopKCombinesSpanningNodes(t *testing.T) {
	// One node reported by two members (its series span racks): watts and
	// series counts accumulate, and the combined entry re-ranks.
	parts := []MemberTopK{
		{Member: "m0", Doc: httpapi.TopKResult{Nodes: []httpapi.NodePower{
			np("big", 60, 1), np("shared", 40, 2),
		}}},
		{Member: "m1", Doc: httpapi.TopKResult{Nodes: []httpapi.NodePower{
			np("shared", 30, 1),
		}}},
	}
	got := MergeTopK(parts, 0, "d")
	want := []httpapi.NodePower{np("shared", 70, 3), np("big", 60, 1)}
	if !reflect.DeepEqual(got.Nodes, want) {
		t.Fatalf("combined ranking:\n got %+v\nwant %+v", got.Nodes, want)
	}
	if got.TotalWatts != 130 {
		t.Fatalf("total = %v, want 130", got.TotalWatts)
	}
}

func TestMergeTopKEmpty(t *testing.T) {
	got := MergeTopK(nil, 10, "d")
	if len(got.Nodes) != 0 || got.TotalWatts != 0 {
		t.Fatalf("empty merge: %+v", got)
	}
}

// rawFrame is node's raw frame: one sample per time in tns, valued v[i].
func rawFrame(node string, tns []time.Duration, v []float64, gaps []time.Duration) httpapi.Frame {
	return httpapi.Frame{
		Node: node, Backend: "b", Domain: "d", Unit: "W", Resolution: "raw",
		TNS: tns, V: v, GapsNS: gaps,
	}
}

func TestMergeFramesDisjointSortedUnion(t *testing.T) {
	parts := []MemberQuery{
		{Member: "m1", Doc: httpapi.QueryResult{Frames: []httpapi.Frame{
			rawFrame("n2", []time.Duration{1}, []float64{2}, nil),
		}}},
		{Member: "m0", Doc: httpapi.QueryResult{Frames: []httpapi.Frame{
			rawFrame("n1", []time.Duration{1}, []float64{1}, []time.Duration{5}),
		}}},
	}
	got, err := MergeFrames(parts, "")
	if err != nil || len(got) != 2 || got[0].Node != "n1" || got[1].Node != "n2" {
		t.Fatalf("merged frames out of order (%v): %+v", err, got)
	}
	if len(got[0].GapsNS) != 1 || got[0].GapsNS[0] != 5 {
		t.Fatalf("gap marker dropped: %+v", got[0])
	}
}

func TestMergeFramesCombinesSpanningSeries(t *testing.T) {
	// Same series key from two members: samples interleave by time (equal
	// times in member order), gaps union (duplicates collapse), and the
	// reduction is recomputed — at raw resolution from the columns.
	parts := []MemberQuery{
		{Member: "m1", Doc: httpapi.QueryResult{Frames: []httpapi.Frame{
			rawFrame("n1", []time.Duration{20, 30}, []float64{8, 9}, []time.Duration{50, 60}),
		}}},
		{Member: "m0", Doc: httpapi.QueryResult{Frames: []httpapi.Frame{
			rawFrame("n1", []time.Duration{10, 30}, []float64{1, 3}, []time.Duration{40, 50}),
		}}},
	}
	got, err := MergeFrames(parts, "mean")
	if err != nil || len(got) != 1 {
		t.Fatalf("want 1 combined frame, got %d (%v)", len(got), err)
	}
	f := got[0]
	if want := []time.Duration{10, 20, 30, 30}; !reflect.DeepEqual(f.TNS, want) || f.Buckets != nil {
		t.Fatalf("t_ns = %v, want %v, and no bucket columns (%+v)", f.TNS, want, f)
	}
	if want := []float64{1, 8, 3, 9}; !reflect.DeepEqual(f.V, want) {
		t.Fatalf("v = %v, want %v: samples not interleaved by time, in member order", f.V, want)
	}
	if want := []time.Duration{40, 50, 60}; !reflect.DeepEqual(f.GapsNS, want) {
		t.Fatalf("gaps = %v, want %v", f.GapsNS, want)
	}
	if want := (1.0 + 8 + 3 + 9) / 4; f.Reduced == nil || *f.Reduced != want {
		t.Fatalf("reduced = %v, want %v", f.Reduced, want)
	}
	// An aggregate the merge does not know is an error, not a combine
	// without a reduction.
	if _, err := MergeFrames(parts, "median"); err == nil || !strings.Contains(err.Error(), "median") {
		t.Fatalf("unknown aggregate: error %v", err)
	}

	// A rollup series: buckets interleave, and the mean is count-weighted.
	got, err = MergeFrames([]MemberQuery{
		{Member: "m0", Doc: httpapi.QueryResult{Frames: []httpapi.Frame{rollupFrame("n1", bucket(10, 1, 1), bucket(30, 3, 1))}}},
		{Member: "m1", Doc: httpapi.QueryResult{Frames: []httpapi.Frame{rollupFrame("n1", bucket(20, 8, 3))}}},
	}, "mean")
	if err != nil || len(got) != 1 {
		t.Fatalf("want 1 combined frame, got %d (%v)", len(got), err)
	}
	f = got[0]
	if want := []time.Duration{10, 20, 30}; !reflect.DeepEqual(f.TNS, want) || f.Buckets == nil || len(f.Count) != 3 {
		t.Fatalf("buckets not interleaved by time: %+v", f)
	}
	// Count-weighted mean: (1*1 + 8*3 + 3*1) / 5
	if want := (1.0 + 24.0 + 3.0) / 5.0; f.Reduced == nil || *f.Reduced != want {
		t.Fatalf("reduced = %v, want %v", f.Reduced, want)
	}

	// What a combine cannot place is an error, never a sample dropped.
	short := rollupFrame("n1", bucket(1, 1, 1), bucket(2, 2, 1))
	short.Last = short.Last[:1] // its own Buckets
	for name, bad := range map[string]httpapi.Frame{
		"columns of two lengths":            rawFrame("n1", []time.Duration{1, 2}, []float64{1}, nil),
		"a bucket column shorter than t_ns": short,
		"a raw frame beside a rollup frame": rollupFrame("n1", bucket(1, 1, 1)),
	} {
		_, err := MergeFrames([]MemberQuery{
			{Member: "m0", Doc: httpapi.QueryResult{Frames: []httpapi.Frame{rawFrame("n1", []time.Duration{5}, []float64{5}, nil)}}},
			{Member: "m1", Doc: httpapi.QueryResult{Frames: []httpapi.Frame{bad}}},
		}, "mean")
		if err == nil || !strings.Contains(err.Error(), "n1") {
			t.Errorf("%s: combine error %v, want one naming the series", name, err)
		}
	}
}

// bucketRow is one rollup bucket: its start and its columns' values.
type bucketRow struct {
	t                    time.Duration
	mean, min, max, last float64
	count                int
}

// bucket is a bucket of count samples all valued v.
func bucket(t time.Duration, v float64, count int) bucketRow {
	return bucketRow{t, v, v, v, v, count}
}

// rollupFrame is node's 1 s frame holding rows, as columns.
func rollupFrame(node string, rows ...bucketRow) httpapi.Frame {
	f := httpapi.Frame{Node: node, Backend: "b", Domain: "d", Unit: "W", Resolution: "1s", Buckets: new(httpapi.Buckets)}
	for _, r := range rows {
		f.TNS, f.V = append(f.TNS, r.t), append(f.V, r.mean)
		f.Min, f.Max = append(f.Min, r.min), append(f.Max, r.max)
		f.Last, f.Count = append(f.Last, r.last), append(f.Count, r.count)
	}
	return f
}

// TestMergeFramesPermutesBucketColumnsTogether: a series at 1 s on three
// members, every bucket's six numbers distinct, combines into the frame
// whose columns are the rows sorted by start — one permutation for all
// six, equal starts in member order — with each reduction taken from the
// right column.
func TestMergeFramesPermutesBucketColumnsTogether(t *testing.T) {
	row := func(t time.Duration, k float64) bucketRow {
		return bucketRow{t, 10 * k, 10*k - 1, 10*k + 1, 10*k + 0.5, int(k)}
	}
	parts := []MemberQuery{
		{Member: "m2", Doc: httpapi.QueryResult{Frames: []httpapi.Frame{rollupFrame("n1", row(2e9, 6), row(5e9, 7))}}},
		{Member: "m0", Doc: httpapi.QueryResult{Frames: []httpapi.Frame{rollupFrame("n1", row(1e9, 1), row(3e9, 2), row(4e9, 3))}}},
		{Member: "m1", Doc: httpapi.QueryResult{Frames: []httpapi.Frame{rollupFrame("n1", row(3e9, 4), row(6e9, 5))}}},
	}
	want := rollupFrame("n1", row(1e9, 1), row(2e9, 6), row(3e9, 2), row(3e9, 4), row(4e9, 3), row(5e9, 7), row(6e9, 5))
	for _, tc := range []struct {
		agg  string
		want float64
	}{
		{"min", 9}, {"max", 71}, {"last", 50.5},
		{"mean", (10*1*1 + 60*6 + 20*2 + 40*4 + 30*3 + 70*7 + 50*5) / 28.0},
	} {
		got, err := MergeFrames(parts, tc.agg)
		if err != nil || len(got) != 1 {
			t.Fatalf("agg %s: %d frames (%v)", tc.agg, len(got), err)
		}
		f := got[0]
		if f.Reduced == nil || *f.Reduced != tc.want {
			t.Errorf("agg %s: reduced = %v, want %v", tc.agg, f.Reduced, tc.want)
		}
		f.Reduced = nil
		if !reflect.DeepEqual(f, want) {
			t.Fatalf("agg %s: combined\n got %+v\nwant %+v", tc.agg, f, want)
		}
	}
}

func TestMergeHealthSumsAndDegrades(t *testing.T) {
	parts := []httpapi.Health{
		{Status: "ok", Series: 2, Samples: 10, Gaps: 1, SimNowNS: 100},
		{Status: "degraded", Series: 3, Samples: 20, Gaps: 2, SimNowNS: 300},
	}
	h := mergeHealth(parts, 3)
	if h.Status != "degraded" {
		t.Fatalf("status = %q", h.Status)
	}
	if h.Series != 5 || h.Samples != 30 || h.Gaps != 3 {
		t.Fatalf("sums wrong: %+v", h)
	}
	if h.SimNowNS != 300 || h.Federation.SimSkewNS != 200 {
		t.Fatalf("sim now/skew wrong: %+v", h.Federation)
	}
	if h.Federation.Members != 3 || h.Federation.Healthy != 1 || h.Federation.Degraded != 1 {
		t.Fatalf("federation section wrong: %+v", h.Federation)
	}
}

func TestParseMembers(t *testing.T) {
	ms, err := ParseMembers("rack0=http://a:1, http://b:2 ,c:3")
	if err != nil {
		t.Fatal(err)
	}
	want := []Member{
		{Name: "rack0", URL: "http://a:1"},
		{Name: "m01", URL: "http://b:2"},
		{Name: "m02", URL: "http://c:3"},
	}
	if !reflect.DeepEqual(ms, want) {
		t.Fatalf("parsed members:\n got %+v\nwant %+v", ms, want)
	}
	if _, err := ParseMembers(" , "); err == nil {
		t.Fatal("empty spec must error")
	}
	// An entry with no host would be a member that can never answer.
	for _, spec := range []string{"a=", "http://", " = ", "rack0=http://a:1,b="} {
		_, err := ParseMembers(spec)
		if err == nil {
			t.Errorf("ParseMembers(%q) accepted a member with no host", spec)
			continue
		}
		if bad := strings.TrimSpace(spec[strings.LastIndex(spec, ",")+1:]); !strings.Contains(err.Error(), strconv.Quote(bad)) {
			t.Errorf("ParseMembers(%q) error %q does not name the entry %q", spec, err, bad)
		}
	}
}

// FuzzParseMembers: a -members value is bytes an operator typed. Whatever
// it accepts has a non-empty name and a URL with a host for every member,
// and the members rejoined as name=url,… parse back to the same list.
func FuzzParseMembers(f *testing.F) {
	for _, s := range []string{"rack0=http://a:1, http://b:2 ,c:3", "a=", "http://", " = ", "rack0=http://a:1,b=",
		"=http://x", "x=y=z", "a b=https://h/p?q=1", "http://h=1/p", "m00=a,m00=b", "r/0=http://a"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		ms, err := ParseMembers(spec)
		if err != nil {
			return
		}
		parts := make([]string, len(ms))
		for i, m := range ms {
			if u, err := url.Parse(m.URL); m.Name == "" || err != nil || u.Host == "" {
				t.Fatalf("%q: member %+v has no name or no host (%v)", spec, m, err)
			}
			parts[i] = m.Name + "=" + m.URL
		}
		rejoined := strings.Join(parts, ",")
		if back, err := ParseMembers(rejoined); err != nil || !reflect.DeepEqual(back, ms) {
			t.Fatalf("%q: parsed %+v, rejoined %q, which parses to %+v (%v)", spec, ms, rejoined, back, err)
		}
	})
}
