package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

	"envmon/internal/daemon"
	"envmon/internal/obs"
	"envmon/internal/powercap"
	"envmon/internal/telemetry/client"
)

// config carries every envcapd knob, so the daemon is constructible from
// a test without flag parsing.
type config struct {
	listen     string
	telemetry  string
	domain     string
	ladderSpec string

	budget, floor, max     float64
	tolerance, deadband    float64
	gain, slew             float64
	freshness, recoverHold time.Duration
	watchdog, ladderHold   time.Duration
	interval, window       time.Duration
	deadline               time.Duration
	logCapacity            int

	logf func(format string, args ...any)
}

// parseLadder turns "0.9,0.75,0.5" into fractions; empty selects the
// controller default.
func parseLadder(spec string) ([]float64, error) {
	if spec == "" {
		return nil, nil
	}
	parts := strings.Split(spec, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("ladder fraction %q: %v", p, err)
		}
		out = append(out, f)
	}
	return out, nil
}

// capDaemon is an assembled envcapd: controller, telemetry source, and
// the bound chassis server (Addr).
type capDaemon struct {
	*daemon.Server
	cfg     config
	ctrl    *powercap.Controller
	src     powercap.ClientSource
	started time.Time
}

// newCapDaemon builds the daemon and binds the listen address (so a
// caller with ":0" can read the real port from Addr before running).
func newCapDaemon(cfg config) (*capDaemon, error) {
	if cfg.logf == nil {
		cfg.logf = log.Printf
	}
	ladder, err := parseLadder(cfg.ladderSpec)
	if err != nil {
		return nil, err
	}
	ctrl, err := powercap.New(powercap.Config{
		BudgetW:     cfg.budget,
		FloorW:      cfg.floor,
		MaxW:        cfg.max,
		ToleranceW:  cfg.tolerance,
		DeadbandW:   cfg.deadband,
		Gain:        cfg.gain,
		SlewW:       cfg.slew,
		Freshness:   cfg.freshness,
		RecoverHold: cfg.recoverHold,
		Watchdog:    cfg.watchdog,
		Ladder:      ladder,
		LadderHold:  cfg.ladderHold,
		LogCapacity: cfg.logCapacity,
	})
	if err != nil {
		return nil, err
	}
	d := &capDaemon{
		cfg:  cfg,
		ctrl: ctrl,
		src: powercap.ClientSource{
			Client:   client.New(cfg.telemetry),
			Domain:   cfg.domain,
			Window:   cfg.window,
			Deadline: cfg.deadline,
		},
		started: time.Now(),
	}
	reg := obs.NewRegistry()
	ctrl.Instrument(reg)
	reg.GaugeFunc("envcap_uptime_seconds",
		"Daemon wall-clock uptime.",
		func() float64 { return time.Since(d.started).Seconds() })

	api := daemon.NewHandler("envcap")
	api.HandleFunc("/healthz", d.handleHealthz)
	api.HandleFunc("/decisions", d.handleDecisions)
	api.Instrument(reg)
	d.Server, err = daemon.Listen(daemon.Config{Name: "envcapd", Addr: cfg.listen, Handler: api, Logf: cfg.logf})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// now is the controller's time base: wall time since daemon start, so
// freshness windows and the watchdog run on real seconds.
func (d *capDaemon) now() time.Duration { return time.Since(d.started) }

// step runs one control tick: observe, decide, log transitions.
func (d *capDaemon) step(ctx context.Context) {
	now := d.now()
	qctx := ctx
	if d.cfg.deadline > 0 {
		var cancel context.CancelFunc
		qctx, cancel = context.WithTimeout(ctx, d.cfg.deadline+time.Second)
		defer cancel()
	}
	prev := d.ctrl.Mode()
	dec := d.ctrl.Step(d.src.Observe(qctx, now))
	if dec.Mode != prev {
		d.cfg.logf("envcapd: %v -> %v (cap %.0f W, measured %.0f W, rung %d, %s)",
			prev, dec.Mode, dec.CapW, dec.MeasuredW, dec.Rung, dec.Reason)
	}
}

func (d *capDaemon) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(d.ctrl.Status(d.now()))
}

func (d *capDaemon) handleDecisions(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/csv")
	_ = d.ctrl.Log().WriteCSV(w)
}

// run steps the control loop every interval and serves HTTP until ctx is
// cancelled, then drains.
func (d *capDaemon) run(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		ticker := time.NewTicker(d.cfg.interval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				d.step(ctx)
			}
		}
	}()
	// The closing hook stops the control loop on a listener failure too.
	err := d.Server.Run(ctx, cancel)
	<-loopDone
	return err
}
