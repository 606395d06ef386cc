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
// own spelling — plus, for /topk, a k in [0, maxTopK].

var paramSeeds = []string{
	"", "node=n00&backend=MSR&domain=Total+Power&res=1s&agg=mean&from=5s&to=10s&deadline_ms=250",
	"k=0", "k=10000", "k=10001", "k=-1", "k=+5", "k=1e3", "k=0x10", "k=99999999999999999999",
	"res=raw", "res=60s", "res=bogus", "agg=last", "agg=median", "deadline_ms=3600000", "deadline_ms=3600001",
	"from=1h&to=-5m", "from=5", "%zz", "res=1s&res=10s", "agg=%6d%65%61%6e", ";k=3", "deadline_ms=0",
}

func rawQueryRequest(s string) *http.Request { return &http.Request{URL: &url.URL{RawQuery: s}} }

func checkParsed(t *testing.T, s string, q telemetry.Query, deadline time.Duration) {
	t.Helper()
	if deadline < 0 || deadline > time.Hour {
		t.Errorf("%q: deadline %v outside [0, 1h]", s, deadline)
	}
	if res, err := telemetry.ParseResolution(q.Resolution.String()); err != nil || res != q.Resolution {
		t.Errorf("%q: resolution %v reads back as %v (%v)", s, q.Resolution, res, err)
	}
	if agg, err := telemetry.ParseAggregate(q.Aggregate.String()); err != nil || agg != q.Aggregate {
		t.Errorf("%q: aggregate %v reads back as %v (%v)", s, q.Aggregate, agg, err)
	}
}

func FuzzParseQuery(f *testing.F) {
	for _, s := range paramSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if q, deadline, err := ParseQuery(rawQueryRequest(s)); err == nil {
			checkParsed(t, s, q, deadline)
		}
	})
}

func FuzzParseTopK(f *testing.F) {
	for _, s := range paramSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		k, q, deadline, err := ParseTopK(rawQueryRequest(s))
		if err != nil {
			return
		}
		if k < 0 || k > maxTopK {
			t.Errorf("%q: k %d outside [0, %d]", s, k, maxTopK)
		}
		checkParsed(t, s, q, deadline)
	})
}
