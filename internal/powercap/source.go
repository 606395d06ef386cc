package powercap

import (
	"context"
	"time"

	"envmon/internal/telemetry"
	"envmon/internal/telemetry/client"
	"envmon/internal/telemetry/httpapi"
)

// Two sources produce the controller's observations, one per deployment:
// StoreSource reads a telemetry store in-process (the deterministic
// acceptance path, where the controller and the simulated fleet share a
// clock), and ClientSource queries an envmond or envfedd endpoint over
// HTTP (the envcapd daemon path). Both have the one method
// Observe(ctx, now) Observation, and both sum the "Total Power" domain
// (telemetry.PowerDomain's default).

// StoreSource measures fleet power straight from a telemetry store: the
// sum over nodes of each series' newest value inside the lookback
// window. Age comes from the newest point seen, gaps from the explicit
// gap markers — a window full of gaps yields an old newest-point and
// therefore a stale observation, never a zero-watt one.
type StoreSource struct {
	Store *telemetry.Store
	// Window is the lookback [now-Window, now); non-positive selects 5s.
	Window time.Duration
}

func (s StoreSource) Observe(_ context.Context, now time.Duration) Observation {
	window := s.Window
	if window <= 0 {
		window = 5 * time.Second
	}
	from := now - window
	if from < 0 {
		from = 0
	}
	frames := s.Store.Frames(telemetry.Query{
		Domain: telemetry.PowerDomain(""), From: from, To: now,
		Resolution: telemetry.Raw, Aggregate: telemetry.AggLast,
	})
	o := Observation{Now: now}
	var newest time.Duration
	for _, f := range frames {
		o.Gaps += len(f.Gaps)
		if !f.ReducedOK {
			continue
		}
		o.MeasuredW += f.Reduced
		o.Valid = true
		if n := len(f.TNS); n > 0 && f.TNS[n-1] > newest {
			newest = f.TNS[n-1]
		}
	}
	if o.Valid {
		o.Age = now - newest
		o.AgeKnown = true
	}
	return o
}

// ClientSource measures fleet power through a telemetry HTTP endpoint
// (direct envmond or federated envfedd). Freshness rides on the
// response's sim_now_ns/newest_ns metadata; a transport error, an empty
// result, or a document without metadata all yield a not-fresh
// observation — the fail-safe reading of every failure.
type ClientSource struct {
	Client *client.Client
	// Window is how far behind the newest sample of the response a series
	// may have last reported (the last of its t_ns column) and still count
	// towards the sum; non-positive selects 5s. It is applied here, to the
	// decoded frames: the query itself carries no from/to, so the server
	// answers with every raw sample it retains.
	Window time.Duration
	// Deadline, when positive, bounds each query server-side; it is sent
	// rounded up to a whole millisecond.
	Deadline time.Duration
}

func (s ClientSource) Observe(ctx context.Context, now time.Duration) Observation {
	window := s.Window
	if window <= 0 {
		window = 5 * time.Second
	}
	doc, err := s.Client.Query(ctx, httpapi.Request{
		Query:    telemetry.Query{Domain: telemetry.PowerDomain(""), Aggregate: telemetry.AggLast},
		Deadline: s.Deadline,
	})
	o := Observation{Now: now}
	if err != nil {
		return o
	}
	newest := time.Duration(doc.NewestNS)
	cutoff := newest - window
	for _, f := range doc.Frames {
		o.Gaps += len(f.GapsNS)
		if f.Reduced == nil || len(f.TNS) == 0 {
			continue
		}
		// Only series that reported inside the lookback window count: a
		// dead node's last-ever reading must age out of the sum instead
		// of being billed as current draw forever.
		if f.TNS[len(f.TNS)-1] < cutoff {
			continue
		}
		o.MeasuredW += *f.Reduced
		o.Valid = true
	}
	if age, ok := client.Freshness(doc); ok && o.Valid {
		o.Age = age
		o.AgeKnown = true
	}
	return o
}
