package powercap

import (
	"time"

	"envmon/internal/obs"
)

// Instrument registers the controller's gauges and counters on reg under
// the envcap_ prefix. All values read live controller state, so the
// registry scrape always reflects the latest step.
func (c *Controller) Instrument(reg *obs.Registry) {
	reg.GaugeFunc("envcap_budget_watts",
		"Fleet power budget the controller holds.",
		func() float64 { return c.cfg.BudgetW })
	reg.GaugeFunc("envcap_cap_watts",
		"Currently commanded fleet power cap.",
		c.Cap)
	reg.GaugeFunc("envcap_measured_watts",
		"Last fresh fleet power measurement.",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return c.measured
		})
	reg.GaugeFunc("envcap_mode",
		"Controller mode: 0 nominal, 1 capping, 2 stale, 3 degraded.",
		func() float64 { return float64(c.Mode()) })
	reg.GaugeFunc("envcap_degraded_rung",
		"Degradation ladder rung (-1 outside ModeDegraded).",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(c.rung)
		})
	reg.CounterFunc("envcap_steps_total",
		"Observations the controller has consumed.",
		func() float64 { return float64(c.Steps()) })
	reg.CounterFunc("envcap_budget_violation_seconds_total",
		"Seconds with fresh measured power above budget+tolerance.",
		c.ViolationSeconds)
	reg.CounterFunc("envcap_decision_log_dropped_total",
		"Decisions evicted from the bounded decision log.",
		func() float64 { return float64(c.log.Dropped()) })
}

// Status is the controller's /healthz document.
type Status struct {
	Status           string  `json:"status"` // ok | capping | stale | degraded
	Mode             string  `json:"mode"`
	BudgetW          float64 `json:"budget_w"`
	CapW             float64 `json:"cap_w"`
	MeasuredW        float64 `json:"measured_w"`
	Rung             int     `json:"rung"`
	ViolationSeconds float64 `json:"violation_seconds"`
	Steps            uint64  `json:"steps"`
	// LastDataAgeNS is time since the last fresh observation; -1 when no
	// fresh observation has ever arrived.
	LastDataAgeNS int64 `json:"last_data_age_ns"`
}

// statusWord maps a mode to the coarse health word daemons expose.
func statusWord(m Mode) string {
	switch m {
	case ModeNominal:
		return "ok"
	case ModeCapping:
		return "capping"
	case ModeStale:
		return "stale"
	default:
		return "degraded"
	}
}

// Status snapshots the controller as of now.
func (c *Controller) Status(now time.Duration) Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	age := int64(-1)
	if c.everFresh {
		age = int64(now - c.lastFresh)
	}
	return Status{
		Status:           statusWord(c.mode),
		Mode:             c.mode.String(),
		BudgetW:          c.cfg.BudgetW,
		CapW:             c.capW,
		MeasuredW:        c.measured,
		Rung:             c.rung,
		ViolationSeconds: c.violationS,
		Steps:            c.steps,
		LastDataAgeNS:    age,
	}
}
