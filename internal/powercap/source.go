package powercap

import (
	"context"
	"time"

	"envmon/internal/telemetry"
	"envmon/internal/telemetry/client"
)

// Two sources produce the controller's observations, one per deployment:
// StoreSource reads a telemetry store in-process (the deterministic
// acceptance path, where the controller and the simulated fleet share a
// clock), and ClientSource queries an envmond or envfedd endpoint over
// HTTP (the envcapd daemon path). Both have the one method
// Observe(ctx, now) Observation.

// StoreSource measures fleet power straight from a telemetry store: the
// sum over nodes of each series' newest value inside the lookback
// window. Age comes from the newest point seen, gaps from the explicit
// gap markers — a window full of gaps yields an old newest-point and
// therefore a stale observation, never a zero-watt one.
type StoreSource struct {
	Store *telemetry.Store
	// Domain selects the power domain; empty means "Total Power".
	Domain string
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
	frames := s.Store.Query(telemetry.Query{
		Domain: telemetry.PowerDomain(s.Domain), From: from, To: now,
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
		if n := len(f.Points); n > 0 && f.Points[n-1].T > newest {
			newest = f.Points[n-1].T
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
	// Domain selects the power domain; empty means "Total Power".
	Domain string
	// Window is how far behind the newest point of the response a series
	// may have last reported and still count towards the sum;
	// non-positive selects 5s. It is applied here, to the decoded frames:
	// the query itself carries no from/to, so the server answers with
	// every raw point it retains.
	Window time.Duration
	// Deadline, when positive, bounds each query server-side.
	Deadline time.Duration
}

func (s ClientSource) Observe(ctx context.Context, now time.Duration) Observation {
	window := s.Window
	if window <= 0 {
		window = 5 * time.Second
	}
	doc, err := s.Client.QueryFull(ctx, client.QueryParams{
		Domain:    telemetry.PowerDomain(s.Domain),
		Aggregate: "last",
		Deadline:  s.Deadline,
	})
	o := Observation{Now: now}
	if err != nil {
		return o
	}
	newest := time.Duration(doc.NewestNS)
	cutoff := newest - window
	for _, f := range doc.Frames {
		o.Gaps += len(f.GapsNS)
		if f.Reduced == nil || len(f.Points) == 0 {
			continue
		}
		// Only series that reported inside the lookback window count: a
		// dead node's last-ever reading must age out of the sum instead
		// of being billed as current draw forever.
		if f.Points[len(f.Points)-1].T < cutoff {
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
