package federation

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"envmon/internal/obs"
	"envmon/internal/telemetry"
	"envmon/internal/telemetry/httpapi"
)

// sameSeriesOnTwoMembers starts two members that both hold the series
// n00000/rack/Total Power — a series spanning racks, which the front-end
// answers with one combined frame — with value v at 1 s on the first and
// at 2 s on the second.
func sameSeriesOnTwoMembers(t *testing.T, v float64) []Member {
	t.Helper()
	members := make([]Member, 2)
	for j := range members {
		st := telemetry.New(smallStore)
		t.Cleanup(st.Close)
		key := telemetry.SeriesKey{Node: nodeName(0), Backend: "rack", Domain: "Total Power"}
		if err := st.Ingest(key, "W", time.Duration(j+1)*time.Second, v); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(httpapi.New(st, func() time.Duration { return 4 * time.Second }))
		t.Cleanup(ts.Close)
		members[j] = Member{Name: fmt.Sprintf("rack%02d", j), URL: ts.URL}
	}
	return members
}

// TestFederatedQueryOnTheWire: envfedd's /query body is what encoding/json
// would have written for the same document, and by the time the client
// has read it to its end the byte counter has advanced by exactly its
// length.
func TestFederatedQueryOnTheWire(t *testing.T) {
	base, _ := startFederation(t, startMembers(t, 128, 4), obs.NewRegistry())
	resp, err := http.Get(base + "/query?agg=last")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(body) < 16<<10 {
		t.Fatalf("status %d, body %d bytes", resp.StatusCode, len(body))
	}
	var doc httpapi.QueryResult
	if err := json.Unmarshal(body, &doc); err != nil || len(doc.Frames) != 128 {
		t.Fatalf("document: %v, %d frames", err, len(doc.Frames))
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(doc); err != nil || !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("body is not encoding/json's encoding of itself (%v):\n%.300s\n%.300s", err, body, want.Bytes())
	}
	_, metrics := get(t, base+"/metrics")
	if want := fmt.Sprintf(`envfed_http_response_bytes_total{endpoint="query"} %d`, len(body)); !strings.Contains(string(metrics), want+"\n") {
		t.Errorf("metrics missing %q", want)
	}

	// Every empty answer, to the byte, is the one a single daemon gives
	// (httpapi's TestQueryOnTheWire): an empty window spells no sample
	// array, an empty list is [], and nothing is null. A combined frame
	// answers alike: TestCombinedEmptyWindowSpellsNoArrays.
	empty, _ := startFederation(t, startMembers(t, 0, 2), nil)
	for _, row := range []struct {
		base, path string
		status     int
		body       string
	}{
		{base, "/query?node=n00000&from=10s", 200, `{"frames":[{"node":"n00000","backend":"rack","domain":"Total Power","unit":"W","resolution":"raw"}],"sim_now_ns":4000000000}`},
		{base, "/query?node=n00000&from=10s&res=10s&agg=max", 200, `{"frames":[{"node":"n00000","backend":"rack","domain":"Total Power","unit":"W","resolution":"10s"}],"sim_now_ns":4000000000}`},
		{base, "/query?node=n00000&from=3200ms", 200, `{"frames":[{"node":"n00000","backend":"rack","domain":"Total Power","unit":"W","resolution":"raw","gaps_ns":[3500000000]}],"sim_now_ns":4000000000}`},
		{base, "/topk?from=10s", 200, `{"domain":"Total Power","total_watts":0,"sim_now_ns":4000000000,"nodes":[]}`},
		{base, "/topk?domain=nope", 200, `{"domain":"nope","total_watts":0,"sim_now_ns":4000000000,"nodes":[]}`},
		{base, "/query?node=nope", 404, `{"error":"no matching series"}`},
		{empty, "/query", 200, `{"frames":[],"sim_now_ns":4000000000}`},
		{empty, "/topk", 200, `{"domain":"Total Power","total_watts":0,"sim_now_ns":4000000000,"nodes":[]}`},
		{empty, "/query?domain=Total+Power", 404, `{"error":"no matching series"}`},
	} {
		if status, got := get(t, row.base+row.path); status != row.status || string(got) != row.body+"\n" {
			t.Errorf("GET %s = %d\n got %s\nwant %s", row.path, status, got, row.body)
		}
	}
}

// TestCombinedEmptyWindowSpellsNoArrays: same-key frames that combine to
// no samples are served as a single daemon serves an empty window — no
// t_ns, v or points array, and nothing spelled null — at raw resolution
// and at a rollup.
func TestCombinedEmptyWindowSpellsNoArrays(t *testing.T) {
	members := sameSeriesOnTwoMembers(t, 7)
	base, _ := startFederation(t, members, nil)
	for _, res := range []string{"raw", "1s"} {
		path := "/query?node=n00000&from=3s&res=" + res
		want := `{"frames":[{"node":"n00000","backend":"rack","domain":"Total Power","unit":"W","resolution":"` + res + `"}],"sim_now_ns":4000000000}` + "\n"
		if status, one := get(t, members[0].URL+path); status != http.StatusOK || string(one) != want {
			t.Fatalf("a member alone: %d\n got %s\nwant %s", status, one, want)
		}
		if status, body := get(t, base+path); status != http.StatusOK || string(body) != want {
			t.Fatalf("combined empty window: %d\n got %s\nwant %s", status, body, want)
		}
	}
}

// TestFederatedNonFiniteAnswers500: the front-end computes too — here the
// count-weighted mean of two members' points overflows, and so does the
// spanning node's /topk sum — and a document it cannot encode is a 500
// naming the series, as on a single daemon. A member whose own /topk
// cannot be encoded is reported missing with its 500.
func TestFederatedNonFiniteAnswers500(t *testing.T) {
	reg := obs.NewRegistry()
	base, _ := startFederation(t, sameSeriesOnTwoMembers(t, 1.7e308), reg)
	status, body := get(t, base+"/query?node=n00000&agg=mean")
	var eb httpapi.ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil || status != http.StatusInternalServerError ||
		!strings.Contains(eb.Error, "n00000/rack/Total Power") || !strings.Contains(eb.Error, "+Inf") {
		t.Fatalf("overflowing mean: %d %s", status, body)
	}
	if status, body := get(t, base+"/topk"); status != http.StatusInternalServerError || !strings.Contains(string(body), "+Inf") {
		t.Fatalf("overflowing /topk sum: %d %s", status, body)
	}
	healthy := startMembers(t, 2, 1)[0]
	healthy.Name = "healthy"
	inf, _ := startFederation(t, []Member{sameSeriesOnTwoMembers(t, math.Inf(1))[0], healthy}, nil)
	var topk httpapi.TopKResult
	if status, body := get(t, inf+"/topk"); json.Unmarshal(body, &topk) != nil || status != http.StatusOK || len(topk.Nodes) != 2 ||
		topk.Degraded == nil || len(topk.Degraded.Missing) != 1 || !strings.Contains(topk.Degraded.Missing[0].Reason, "(HTTP 500)") {
		t.Fatalf("a member that cannot encode its /topk: %d %s", status, body)
	}
	if status, body := get(t, base+"/query?node=n00000&agg=max"); status != http.StatusOK {
		t.Fatalf("the same series without the overflow: %d %s", status, body)
	}
	_, metrics := get(t, base+"/metrics")
	if want := `envfed_http_errors_total{code="500",endpoint="query"} 1`; !strings.Contains(string(metrics), want+"\n") {
		t.Errorf("metrics missing %q", want)
	}
}

// fixedMember is a member that answers every /query with one status and
// one body, whatever was asked.
func fixedMember(t *testing.T, name string, status int, body string) Member {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		io.WriteString(w, body)
	}))
	t.Cleanup(ts.Close)
	return Member{Name: name, URL: ts.URL}
}

// wireFrame spells one frame as envmond's codec does: node n, one raw
// sample of value v per time in ts (seconds), and whatever follows the
// columns.
func wireFrame(n string, v float64, tail string, ts ...int) string {
	var times, values []string
	for _, t := range ts {
		times = append(times, fmt.Sprintf("%d000000000", t))
		values = append(values, fmt.Sprint(v))
	}
	return `{"node":"` + n + `","backend":"rack","domain":"Total Power","unit":"W","resolution":"raw","t_ns":[` +
		strings.Join(times, ",") + `],"v":[` + strings.Join(values, ",") + `]` + tail + `}`
}

// pointFrame is a raw sample in the spelling /query had before every frame
// was columns: valid JSON, which the walk declines, and a "points" key
// nothing reads any more, so encoding/json passes over it.
const pointFrame = `{"node":"n1","backend":"rack","domain":"Total Power","unit":"W","resolution":"raw","points":[{"t_ns":1000000000,"min":1,"max":1,"mean":1,"last":1,"count":1}]}`

// bucketFrame is n1's rollup bucket at 2 s, in the columns a rollup frame
// carries.
const bucketFrame = `{"node":"n1","backend":"rack","domain":"Total Power","unit":"W","resolution":"1s","t_ns":[2000000000],"v":[2],"min":[1],"max":[3],"last":[3],"count":[4]}`

func wireDoc(newest int, frames ...string) string {
	return fmt.Sprintf(`{"frames":[%s],"sim_now_ns":4000000000,"newest_ns":%d000000000}`+"\n", strings.Join(frames, ","), newest)
}

// TestFederatedQueryForwardsAndCombines: the members' frames reach the
// client as the bytes the members sent wherever one member holds the key,
// and what that cannot be true of — a member out of key order, a member
// speaking through another encoder, a key on several members, a member
// whose body is broken — is answered as it always was. The expected bodies
// were read off the front-end that decoded every point and encoded it
// again (ef95c36), not derived from this one.
func TestFederatedQueryForwardsAndCombines(t *testing.T) {
	const notFound = `{"error":"no matching series"}` + "\n"
	// What encoding/json writes for a frame whose unit needs escapes, by
	// way of an indenting encoder: nothing about it is in the codec's shape.
	var indented bytes.Buffer
	enc := json.NewEncoder(&indented)
	enc.SetIndent("", "  ")
	if err := enc.Encode(httpapi.QueryResult{
		Frames: []httpapi.Frame{{Node: "n2", Backend: "rack", Domain: "Inlet", Unit: "°C <&>", Resolution: "raw",
			TNS: []time.Duration{2e9}, V: []float64{21.5}, GapsNS: []time.Duration{1e9}}},
		SimNowNS: 5e9, NewestNS: 2e9,
	}); err != nil {
		t.Fatal(err)
	}
	type fixed struct {
		name   string
		status int
		body   string
	}
	for _, row := range []struct {
		name    string
		members []fixed
		path    string
		status  int
		want    string
		metrics []string // after the request, on an instrumented front-end
	}{
		{
			name: "a member out of key order",
			members: []fixed{
				{"a", 200, wireDoc(3, wireFrame("n3", 3, "", 3), wireFrame("n1", 1, `,"gaps_ns":[1500000000]`, 1))},
				{"b", 200, wireDoc(2, wireFrame("n2", 2, "", 2))},
			},
			path: "/query", status: 200,
			want: `{"frames":[{"node":"n1","backend":"rack","domain":"Total Power","unit":"W","resolution":"raw","t_ns":[1000000000],"v":[1],"gaps_ns":[1500000000]},{"node":"n2","backend":"rack","domain":"Total Power","unit":"W","resolution":"raw","t_ns":[2000000000],"v":[2]},{"node":"n3","backend":"rack","domain":"Total Power","unit":"W","resolution":"raw","t_ns":[3000000000],"v":[3]}],"sim_now_ns":4000000000,"newest_ns":3000000000}` + "\n",
			metrics: []string{`envfed_query_frames_total{path="forwarded"} 3`, `envfed_query_frames_total{path="combined"} 0`,
				`envfed_member_bodies_reencoded_total{member="a"} 0`},
		},
		{
			name: "a member answering through encoding/json, a label needing an escape",
			members: []fixed{
				{"a", 200, wireDoc(1, wireFrame("n1", 1, "", 1))},
				{"b", 200, indented.String()},
			},
			path: "/query", status: 200,
			want: `{"frames":[{"node":"n1","backend":"rack","domain":"Total Power","unit":"W","resolution":"raw","t_ns":[1000000000],"v":[1]},{"node":"n2","backend":"rack","domain":"Inlet","unit":"°C \u003c\u0026\u003e","resolution":"raw","t_ns":[2000000000],"v":[21.5],"gaps_ns":[1000000000]}],"sim_now_ns":4000000000,"newest_ns":2000000000}` + "\n",
			metrics: []string{`envfed_query_frames_total{path="forwarded"} 2`,
				`envfed_member_bodies_reencoded_total{member="a"} 0`, `envfed_member_bodies_reencoded_total{member="b"} 1`},
		},
		{
			// The document has one spelling: a member sending the retired
			// point objects is read as encoding/json reads a key no field
			// names, and its frame holds nothing.
			name: "a member spelling raw samples as points",
			members: []fixed{
				{"a", 200, wireDoc(1, pointFrame)},
				{"b", 200, wireDoc(2, wireFrame("n2", 2, "", 2))},
			},
			path: "/query", status: 200,
			want: `{"frames":[{"node":"n1","backend":"rack","domain":"Total Power","unit":"W","resolution":"raw"},{"node":"n2","backend":"rack","domain":"Total Power","unit":"W","resolution":"raw","t_ns":[2000000000],"v":[2]}],"sim_now_ns":4000000000,"newest_ns":2000000000}` + "\n",
			metrics: []string{`envfed_query_frames_total{path="forwarded"} 2`,
				`envfed_member_bodies_reencoded_total{member="a"} 1`, `envfed_member_bodies_reencoded_total{member="b"} 0`},
		},
		{
			// The retired spelling holds nothing a reader sees, so the key's
			// combined frame is the other member's sample.
			name: "a key on two members, one spelling raw samples as points",
			members: []fixed{
				{"a", 200, wireDoc(1, pointFrame)},
				{"b", 200, wireDoc(2, wireFrame("n1", 2, "", 2))},
			},
			path: "/query", status: 200,
			want:    `{"frames":[{"node":"n1","backend":"rack","domain":"Total Power","unit":"W","resolution":"raw","t_ns":[2000000000],"v":[2]}],"sim_now_ns":4000000000,"newest_ns":2000000000}` + "\n",
			metrics: []string{`envfed_query_frames_total{path="combined"} 1`, `envfed_member_bodies_reencoded_total{member="a"} 1`},
		},
		{
			name: "a key on two members, one sending bucket columns",
			members: []fixed{
				{"a", 200, wireDoc(2, bucketFrame)},
				{"b", 200, wireDoc(1, wireFrame("n1", 1, "", 1))},
			},
			path: "/query", status: 500,
			want: `{"error":"federation: series {n1 rack Total Power}: members sent \"1s\" frames with bucket columns and without"}` + "\n",
		},
		{
			// Not read off ef95c36, which spelled buckets as points: the
			// columns of both bodies permuted together, and the mean
			// (1·1 + 2·4 + 5·1) / 6 worked by hand.
			name: "a key on two members, both sending bucket columns",
			members: []fixed{
				{"a", 200, wireDoc(2, bucketFrame)},
				{"b", 200, wireDoc(1, `{"node":"n1","backend":"rack","domain":"Total Power","unit":"W","resolution":"1s","t_ns":[1000000000,2000000000],"v":[1,5],"min":[1,5],"max":[1,5],"last":[1,5],"count":[1,1]}`)},
			},
			path: "/query?agg=mean", status: 200,
			want:    `{"frames":[{"node":"n1","backend":"rack","domain":"Total Power","unit":"W","resolution":"1s","reduced":2.3333333333333335,"t_ns":[1000000000,2000000000,2000000000],"v":[1,2,5],"min":[1,1,5],"max":[1,3,5],"last":[1,3,5],"count":[1,4,1]}],"sim_now_ns":4000000000,"newest_ns":2000000000}` + "\n",
			metrics: []string{`envfed_query_frames_total{path="combined"} 1`},
		},
		{
			name: "a key on two members and twice on one",
			members: []fixed{
				{"b", 200, wireDoc(4, wireFrame("n1", 8, `,"gaps_ns":[2500000000,5000000000]`, 2, 4), wireFrame("n2", 2, "", 2))},
				{"a", 200, wireDoc(5, wireFrame("n1", 1, `,"gaps_ns":[2500000000]`, 1), wireFrame("n1", 3, "", 3, 5))},
			},
			path: "/query?agg=mean", status: 200,
			want:    `{"frames":[{"node":"n1","backend":"rack","domain":"Total Power","unit":"W","resolution":"raw","reduced":4.6,"t_ns":[1000000000,2000000000,3000000000,4000000000,5000000000],"v":[1,8,3,8,3],"gaps_ns":[2500000000,5000000000]},{"node":"n2","backend":"rack","domain":"Total Power","unit":"W","resolution":"raw","t_ns":[2000000000],"v":[2]}],"sim_now_ns":4000000000,"newest_ns":5000000000}` + "\n",
			metrics: []string{`envfed_query_frames_total{path="forwarded"} 1`, `envfed_query_frames_total{path="combined"} 1`},
		},
		{
			name: "one malformed point on one member",
			members: []fixed{
				{"a", 200, wireDoc(1, wireFrame("n1", 1, "", 1))},
				{"b", 200, strings.Replace(wireDoc(2, wireFrame("n2", 2, "", 1, 2)), `"v":[2,2]`, `"v":[2,+2]`, 1)},
				{"c", 200, wireDoc(3, wireFrame("n3", 3, "", 3))},
			},
			path: "/query?node=n2", status: 200, // a filter, and its series on the broken member: 200 and degraded, never 404
			want: `{"frames":[{"node":"n1","backend":"rack","domain":"Total Power","unit":"W","resolution":"raw","t_ns":[1000000000],"v":[1]},{"node":"n3","backend":"rack","domain":"Total Power","unit":"W","resolution":"raw","t_ns":[3000000000],"v":[3]}],"sim_now_ns":4000000000,"newest_ns":3000000000,"degraded":{"members":3,"responded":2,"missing":[{"member":"b","url":"URL(b)","reason":"client: decoding /query response: invalid character '+' looking for beginning of value","state":"closed"}]}}` + "\n",
			metrics: []string{`envfed_query_frames_total{path="forwarded"} 2`, `envfed_member_errors_total{member="b"} 1`,
				`envfed_member_bodies_reencoded_total{member="b"} 0`},
		},
		{
			name:    "every member 404, under a filter",
			members: []fixed{{"a", 404, notFound}, {"b", 404, notFound}},
			path:    "/query?node=nope", status: 404,
			want: notFound,
		},
		{
			name:    "every member 404, no filter",
			members: []fixed{{"a", 404, notFound}, {"b", 404, notFound}},
			path:    "/query", status: 200,
			want:    `{"frames":[]}` + "\n",
			metrics: []string{`envfed_query_frames_total{path="forwarded"} 0`, `envfed_member_errors_total{member="a"} 0`},
		},
	} {
		t.Run(row.name, func(t *testing.T) {
			members := make([]Member, len(row.members))
			for i, m := range row.members {
				members[i] = fixedMember(t, m.name, m.status, m.body)
			}
			base, _ := startFederation(t, members, obs.NewRegistry())
			status, body := get(t, base+row.path)
			got := string(body)
			for _, m := range members {
				got = strings.ReplaceAll(got, m.URL, "URL("+m.Name+")")
			}
			if status != row.status || got != row.want {
				t.Errorf("GET %s = %d\n got %s\nwant %s", row.path, status, got, row.want)
			}
			_, metrics := get(t, base+"/metrics")
			for _, want := range row.metrics {
				if !strings.Contains(string(metrics), want+"\n") {
					t.Errorf("metrics missing %q", want)
				}
			}
		})
	}
}
