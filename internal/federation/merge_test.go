package federation

import (
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

func frame(node string, points []httpapi.Point, gaps []time.Duration) httpapi.Frame {
	return httpapi.Frame{
		Node: node, Backend: "b", Domain: "d", Unit: "W", Resolution: "raw",
		Points: points, GapsNS: gaps,
	}
}

func TestMergeFramesDisjointSortedUnion(t *testing.T) {
	parts := []MemberQuery{
		{Member: "m1", Doc: httpapi.QueryResult{Frames: []httpapi.Frame{
			frame("n2", []httpapi.Point{{T: 1, Mean: 2, Count: 1}}, nil),
		}}},
		{Member: "m0", Doc: httpapi.QueryResult{Frames: []httpapi.Frame{
			frame("n1", []httpapi.Point{{T: 1, Mean: 1, Count: 1}}, []time.Duration{5}),
		}}},
	}
	got := MergeFrames(parts, "")
	if len(got) != 2 || got[0].Node != "n1" || got[1].Node != "n2" {
		t.Fatalf("merged frames out of order: %+v", got)
	}
	if len(got[0].GapsNS) != 1 || got[0].GapsNS[0] != 5 {
		t.Fatalf("gap marker dropped: %+v", got[0])
	}
}

func TestMergeFramesCombinesSpanningSeries(t *testing.T) {
	// Same series key from two members: points interleave by time, gaps
	// union (duplicates collapse), mean recomputes count-weighted.
	parts := []MemberQuery{
		{Member: "m0", Doc: httpapi.QueryResult{Frames: []httpapi.Frame{
			frame("n1", []httpapi.Point{
				{T: 10, Min: 1, Max: 1, Mean: 1, Last: 1, Count: 1},
				{T: 30, Min: 3, Max: 3, Mean: 3, Last: 3, Count: 1},
			}, []time.Duration{40, 50}),
		}}},
		{Member: "m1", Doc: httpapi.QueryResult{Frames: []httpapi.Frame{
			frame("n1", []httpapi.Point{
				{T: 20, Min: 8, Max: 8, Mean: 8, Last: 8, Count: 3},
			}, []time.Duration{50, 60}),
		}}},
	}
	got := MergeFrames(parts, "mean")
	if len(got) != 1 {
		t.Fatalf("want 1 combined frame, got %d", len(got))
	}
	f := got[0]
	if len(f.Points) != 3 || f.Points[0].T != 10 || f.Points[1].T != 20 || f.Points[2].T != 30 {
		t.Fatalf("points not interleaved by time: %+v", f.Points)
	}
	wantGaps := []time.Duration{40, 50, 60}
	if !reflect.DeepEqual(f.GapsNS, wantGaps) {
		t.Fatalf("gaps = %v, want %v", f.GapsNS, wantGaps)
	}
	if f.Reduced == nil {
		t.Fatal("reduced missing")
	}
	// Count-weighted mean: (1*1 + 8*3 + 3*1) / 5
	if want := (1.0 + 24.0 + 3.0) / 5.0; *f.Reduced != want {
		t.Fatalf("reduced = %v, want %v", *f.Reduced, want)
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
