package httpapi

import (
	"net/http"
	"net/url"
	"testing"
	"time"

	"envmon/internal/telemetry"
)

// The query-string parsers read bytes a client wrote. Each fuzzer builds
// the request by hand, since httptest.NewRequest panics on a URL it cannot
// parse, and holds the parser to: no panic, and on success a deadline in
// [0, 1 h] and a resolution and an aggregate that read back from their
// own spelling — plus, for /topk, a k in [0, maxTopK]. And it holds the
// writer to the parser: an accepted URL re-spells (AppendQuery,
// AppendTopK) to one that parses to the same Request, and that spelling
// is a fixed point.

var paramSeeds = []string{
	"", "node=n00&backend=MSR&domain=Total+Power&res=1s&agg=mean&from=5s&to=10s&deadline_ms=250",
	"k=0", "k=10000", "k=10001", "k=-1", "k=+5", "k=1e3", "k=0x10", "k=99999999999999999999",
	"res=raw", "res=60s", "res=bogus", "agg=last", "agg=median", "deadline_ms=3600000", "deadline_ms=3600001",
	"from=1h&to=-5m", "from=5", "%zz", "res=1s&res=10s", "agg=%6d%65%61%6e", ";k=3", "deadline_ms=0",
	"node=a%26b%3Dc+d&domain=%C3%A9%2F%3F&from=-1.5ms&to=1h0m0.000000001s",
}

func rawQueryRequest(s string) *http.Request { return &http.Request{URL: &url.URL{RawQuery: s}} }

func checkParsed(t *testing.T, s string, r Request) {
	t.Helper()
	if r.Deadline < 0 || r.Deadline > time.Hour {
		t.Errorf("%q: deadline %v outside [0, 1h]", s, r.Deadline)
	}
	if res, err := telemetry.ParseResolution(r.Resolution.String()); err != nil || res != r.Resolution {
		t.Errorf("%q: resolution %v reads back as %v (%v)", s, r.Resolution, res, err)
	}
	if agg, err := telemetry.ParseAggregate(r.Aggregate.String()); err != nil || agg != r.Aggregate {
		t.Errorf("%q: aggregate %v reads back as %v (%v)", s, r.Aggregate, agg, err)
	}
}

// checkRespelled holds an accepted request r to its writer: the spelling
// parses back to r and re-spells to itself.
func checkRespelled(t *testing.T, s string, r Request, parse func(*http.Request) (Request, error), spell func([]byte, Request) []byte) {
	t.Helper()
	canon := string(spell(nil, r))
	back, err := parse(rawQueryRequest(canon))
	if err != nil || back != r {
		t.Fatalf("%q: parsed to %+v, spelled %q, which parses to %+v (%v)", s, r, canon, back, err)
	}
	if again := string(spell(nil, back)); again != canon {
		t.Fatalf("%q: spelling %q re-spells as %q", s, canon, again)
	}
}

func FuzzParseQuery(f *testing.F) {
	for _, s := range paramSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if r, err := ParseQuery(rawQueryRequest(s)); err == nil {
			checkParsed(t, s, r)
			checkRespelled(t, s, r, ParseQuery, AppendQuery)
		}
	})
}

func FuzzParseTopK(f *testing.F) {
	for _, s := range paramSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		r, err := ParseTopK(rawQueryRequest(s))
		if err != nil {
			return
		}
		if r.K < 0 || r.K > maxTopK {
			t.Errorf("%q: k %d outside [0, %d]", s, r.K, maxTopK)
		}
		checkParsed(t, s, r)
		checkRespelled(t, s, r, ParseTopK, AppendTopK)
	})
}

// TestRequestRoundTrip: a hand-built valid request at every resolution and
// aggregate, with filters that need escaping and a negative from, parses
// back from its spelling unchanged.
func TestRequestRoundTrip(t *testing.T) {
	for _, res := range []telemetry.Resolution{telemetry.Raw, telemetry.Res1s, telemetry.Res10s, telemetry.Res60s} {
		for _, agg := range []telemetry.Aggregate{telemetry.AggNone, telemetry.AggMean, telemetry.AggMin, telemetry.AggMax, telemetry.AggLast} {
			q := Request{Query: telemetry.Query{
				Node: "rack 1/n&0=1?", Backend: "Sys+Mgmt", Domain: "Total Power", From: -90 * time.Second, To: time.Hour + time.Nanosecond,
				Resolution: res, Aggregate: agg,
			}, Deadline: 250 * time.Millisecond}
			if back, err := ParseQuery(rawQueryRequest(string(AppendQuery(nil, q)))); err != nil || back != q {
				t.Errorf("/query %+v: read back %+v (%v)", q, back, err)
			}
			k := Request{Query: telemetry.Query{Domain: "Ünïcode & ?", From: -time.Millisecond, Resolution: res}, K: 7, Deadline: time.Hour}
			if back, err := ParseTopK(rawQueryRequest(string(AppendTopK(nil, k)))); err != nil || back != k {
				t.Errorf("/topk %+v: read back %+v (%v)", k, back, err)
			}
		}
	}
}

// TestCanonicalSpelling pins the spelling itself: res always, agg unless
// none, k always on /topk, nothing else that is empty or zero, keys in
// url.Values.Encode order, a deadline rounded up to a whole millisecond;
// and an appended string after what dst already holds.
func TestCanonicalSpelling(t *testing.T) {
	for _, c := range []struct {
		got  []byte
		want string
	}{
		{AppendQuery(nil, Request{}), "res=raw"},
		{AppendTopK(nil, Request{}), "k=0&res=raw"},
		{AppendQuery(nil, Request{Query: telemetry.Query{Node: "n1", Backend: "NVML", Domain: "Total Power",
			From: 5 * time.Second, To: time.Minute, Resolution: telemetry.Res10s, Aggregate: telemetry.AggMean}, Deadline: 900 * time.Millisecond}),
			"agg=mean&backend=NVML&deadline_ms=900&domain=Total+Power&from=5s&node=n1&res=10s&to=1m0s"},
		{AppendTopK(nil, Request{Query: telemetry.Query{Node: "x", Aggregate: telemetry.AggMax, Domain: "Total Power"}, K: 3}),
			"domain=Total+Power&k=3&res=raw"},
		{AppendQuery(nil, Request{Deadline: 500 * time.Microsecond}), "deadline_ms=1&res=raw"},
		{AppendTopK(nil, Request{Deadline: time.Second + time.Nanosecond}), "deadline_ms=1001&k=0&res=raw"},
		{AppendQuery([]byte("/query?"), Request{Query: telemetry.Query{From: -5 * time.Second}}), "/query?from=-5s&res=raw"},
	} {
		if string(c.got) != c.want {
			t.Errorf("spelled %q, want %q", c.got, c.want)
		}
	}
}
