package main

import (
	"bytes"
	"fmt"
	"math"
	"strings"

	"envmon/internal/obs"
	"envmon/internal/telemetry/client"
)

// scrape reads a registry the way an operator does: render the /metrics
// exposition and parse it back.
func scrape(reg *obs.Registry) (*client.MetricsSnapshot, error) {
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		return nil, err
	}
	return client.ParseMetrics(&buf)
}

// requestTree is one traced request: the client span and what hangs
// beneath it.
type requestTree struct {
	client  span
	front   *span  // federation.serve.*, nil when the client talks to a member directly
	members []span // httpapi.serve.* spans that answered it
}

// requestTrees groups a section's spans by client span.
func requestTrees(spans []span) map[int][]requestTree {
	byID := make(map[int]span, len(spans))
	kids := make(map[int][]span)
	for _, s := range spans {
		byID[s.ID] = s
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	out := make(map[int][]requestTree)
	for _, s := range spans {
		if !strings.HasPrefix(s.Name, "client.") {
			continue
		}
		class := -1
		for c, name := range classNames {
			if strings.HasSuffix(s.Name, "."+name) {
				class = c
			}
		}
		rt := requestTree{client: s}
		for _, k := range kids[s.ID] {
			if strings.HasPrefix(k.Name, "federation.serve.") {
				k := k
				rt.front = &k
				rt.members = kids[k.ID]
			} else {
				rt.members = append(rt.members, k)
			}
		}
		out[class] = append(out[class], rt)
	}
	return out
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// readLayers turns a read section's spans into its per-layer numbers and
// checks that they explain the latency the client saw: along the blocking
// chain client → [federation →] httpapi the self times (with the
// federation's parallel member calls counted once, as their union) must
// add up to the client-observed median within 5 %.
func readLayers(out *readOut) error {
	trees := requestTrees(out.spans)
	self := selfTimes(out.spans)
	for class, name := range classNames {
		reqs := trees[class]
		if len(reqs) == 0 {
			continue
		}
		var clientSelf, serve, frontDur, frontSelf, wait, skew, chain []float64
		for _, rt := range reqs {
			if rt.front == nil {
				if len(rt.members) != 1 {
					return fmt.Errorf("%s: %s request %d has %d server spans", out.Workload, name, rt.client.Req, len(rt.members))
				}
				m := rt.members[0]
				clientSelf = append(clientSelf, us(self[rt.client.ID]))
				serve = append(serve, us(m.End-m.Start))
				chain = append(chain, us(self[rt.client.ID]+(m.End-m.Start)))
				continue
			}
			f := *rt.front
			var durs []float64
			for _, m := range rt.members {
				durs = append(durs, us(m.End-m.Start))
			}
			asc := sorted(durs)
			clientSelf = append(clientSelf, us(self[rt.client.ID]))
			frontDur = append(frontDur, us(f.End-f.Start))
			frontSelf = append(frontSelf, us(self[f.ID]))
			wait = append(wait, asc[len(asc)-1])
			skew = append(skew, asc[len(asc)-1]/quantile(asc, 0.5))
			chain = append(chain, us(self[rt.client.ID]+(f.End-f.Start)))
		}
		n := len(reqs)
		if len(serve) > 0 {
			out.layer("httpapi.serve_us."+name, median(serve), "us", n)
			out.layer("client."+name+"_us", median(clientSelf), "us", n)
		} else {
			out.layer("federation.serve_us."+name, median(frontDur), "us", n)
			out.layer("federation.self_us."+name, median(frontSelf), "us", n)
			out.layer("federation.member_wait_us."+name, median(wait), "us", n)
			if class == opRecent {
				out.layer("federation.fanout_skew", median(skew), "ratio", n)
			}
		}
		seen := median(out.latMS[class]) * 1e3
		if share := median(chain) / seen; math.Abs(share-1) > 0.05 {
			return fmt.Errorf("%s: %s self times add up to %.1f us, the client saw %.1f us", out.Workload, name, median(chain), seen)
		}
	}
	return nil
}
