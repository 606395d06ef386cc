package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"envmon/internal/telemetry"
	"envmon/internal/telemetry/client"
	"envmon/internal/telemetry/httpapi"
)

// fedSizes parameterizes the fed-fanout section.
type fedSizes struct {
	Members, Nodes, Domains, Points int
	Counts                          [numClasses]int
	Warmup                          int
}

// fedStack is an envfedd over memory-only envmonds holding a wide, shallow
// fleet: many nodes, a handful of points each. Scanning the stores is a
// small share of a request by construction; member JSON, the fan-out
// wait, decode, merge and re-encode are the rest.
type fedStack struct {
	members []*member
	front   *front
	target  readTarget
	sizes   fedSizes
	seed    uint64
}

// fedNow is the members' simulated now: the points sit at 1 s … Points s,
// so the 5 s window holds the newest four of eight.
func fedNow(points int) time.Duration {
	return time.Duration(points)*time.Second + 1500*time.Millisecond
}

func fedDomain(d int) string {
	if d == 0 {
		return powerDomain
	}
	return fmt.Sprintf("domain-%d", d)
}

func (f *fedStack) value(node, domain, s int) float64 {
	return 100 + float64(mix(f.seed^uint64(node)<<24^uint64(domain)<<16^uint64(s))%2000)*0.25
}

// fill ingests the nodes pick selects into st.
func (f *fedStack) fill(st *telemetry.Store, pick func(node int) bool) error {
	for node := 0; node < f.sizes.Nodes; node++ {
		if !pick(node) {
			continue
		}
		for d := 0; d < f.sizes.Domains; d++ {
			key := telemetry.SeriesKey{Node: nodeName(node), Backend: "rack", Domain: fedDomain(d)}
			for s := 1; s <= f.sizes.Points; s++ {
				if err := st.Ingest(key, "W", time.Duration(s)*time.Second, f.value(node, d, s)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (f *fedStack) newStore() *telemetry.Store {
	return telemetry.New(telemetry.Options{Shards: storeShards, RawCapacity: f.sizes.Points, RollupCapacity: 4})
}

func setupFed(seed uint64, sz fedSizes, tr *tracer, onBody func(class int, bytes, points int64)) (*fedStack, error) {
	f := &fedStack{sizes: sz, seed: seed}
	now := fedNow(sz.Points)
	nowFn := func() time.Duration { return now }
	var wrapMember, wrapFront func(http.Handler) http.Handler
	if tr != nil {
		wrapMember = func(h http.Handler) http.Handler { return tr.middleware("httpapi.serve", false, nil, h) }
		wrapFront = func(h http.Handler) http.Handler { return tr.middleware("federation.serve", true, onBody, h) }
	}
	urls := make([]string, sz.Members)
	for i := range urls {
		st := f.newStore()
		if err := f.fill(st, func(node int) bool { return node%sz.Members == i }); err != nil {
			f.close()
			return nil, err
		}
		m, err := serveStore(st, instrument(st), nowFn, wrapMember)
		if err != nil {
			st.Close()
			f.close()
			return nil, err
		}
		f.members = append(f.members, m)
		urls[i] = m.url
	}
	var err error
	if f.front, err = serveFederation(urls, wrapFront); err != nil {
		f.close()
		return nil, err
	}
	inWindow := 0
	for s := 1; s <= sz.Points; s++ {
		if time.Duration(s)*time.Second >= now-window {
			inWindow++
		}
	}
	f.target = readTarget{workload: "fed-fanout", cl: client.New(f.front.url), now: now, nodes: sz.Nodes,
		want: func(o op) (int, int) {
			switch o.class {
			case opTopK:
				return min(10, sz.Nodes), 0
			case opHistory:
				return 1, sz.Points
			default:
				return sz.Nodes, sz.Nodes * inWindow
			}
		}}
	if err := f.target.warmup(sz.Warmup); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *fedStack) close() error {
	var errs []error
	if f.front != nil {
		errs = append(errs, f.front.close())
	}
	for _, m := range f.members {
		errs = append(errs, m.close())
	}
	return errors.Join(errs...)
}

// checkPartitionInvariant is correctness check (c): the federated topk and
// recent documents are byte-identical to the ones a single envmond holding
// the whole fleet serves.
func (f *fedStack) checkPartitionInvariant() error {
	whole := f.newStore()
	defer whole.Close()
	if err := f.fill(whole, func(int) bool { return true }); err != nil {
		return err
	}
	now := f.target.now
	single := httpapi.New(whole, func() time.Duration { return now })
	for _, class := range []int{opTopK, opRecent} {
		path := f.target.path(op{class: class})
		resp, err := http.Get(f.front.url + path)
		if err != nil {
			return err
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		rec := httptest.NewRecorder()
		single.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if resp.StatusCode != http.StatusOK || rec.Code != http.StatusOK {
			return fmt.Errorf("fed-fanout: %s answered %d federated, %d from one store", path, resp.StatusCode, rec.Code)
		}
		if !bytes.Equal(got, rec.Body.Bytes()) {
			return fmt.Errorf("fed-fanout: federated %s document (%d B) differs from the single-store one (%d B)",
				classNames[class], len(got), rec.Body.Len())
		}
	}
	return nil
}
