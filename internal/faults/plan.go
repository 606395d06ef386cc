package faults

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ParsePlan parses the -faults flag syntax: comma-separated key=value
// pairs.
//
//	seed=7                     draw-stream seed (defaults to the caller's)
//	transient=0.1              per-poll transient error probability
//	spike=0.05                 per-poll latency-spike probability
//	spikefactor=20             spike cost multiplier (default 10)
//	stuck=0.01                 per-poll stuck-window entry probability
//	stuckfor=2s                stuck-window length (default 1s)
//	flap=30s                   alternate up/down windows of this length
//	lose=NVML@30s              lose the first NVML collector at t=30s
//	lose=NVML#2@30s            lose the third NVML collector instead
//	lose=NVML#*@30s            lose every NVML collector
//	lose=SysMgmt API@5s-20s    loss that heals at t=20s
//
// The lose key may repeat. An empty spec returns the zero (inert) plan; a
// spec that Plan.Validate refuses (a NaN probability, a spike factor below
// 1 or not finite, a negative duration, a heal not after its loss) is an
// error.
func ParsePlan(spec string, defaultSeed uint64) (Plan, error) {
	plan := Plan{Seed: defaultSeed}
	if strings.TrimSpace(spec) == "" {
		return plan, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, found := strings.Cut(part, "=")
		if !found {
			return Plan{}, fmt.Errorf("faults: bad plan entry %q (want key=value)", part)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		var err error
		switch key {
		case "seed":
			plan.Seed, err = strconv.ParseUint(val, 10, 64)
		case "transient":
			plan.Transient, err = strconv.ParseFloat(val, 64)
		case "spike":
			plan.Spike, err = strconv.ParseFloat(val, 64)
		case "spikefactor":
			plan.SpikeFactor, err = strconv.ParseFloat(val, 64)
		case "stuck":
			plan.Stuck, err = strconv.ParseFloat(val, 64)
		case "stuckfor":
			plan.StuckFor, err = time.ParseDuration(val)
		case "flap":
			plan.Flap, err = time.ParseDuration(val)
		case "lose":
			var loss Loss
			loss, err = parseLoss(val)
			plan.Lose = append(plan.Lose, loss)
		default:
			return Plan{}, fmt.Errorf("faults: unknown plan key %q", key)
		}
		if err != nil {
			return Plan{}, fmt.Errorf("faults: bad %s value %q: %w", key, val, err)
		}
	}
	if err := plan.Validate(); err != nil {
		return Plan{}, err
	}
	return plan, nil
}

// parseLoss parses "method[#instance]@at[-until]".
func parseLoss(val string) (Loss, error) {
	method, window, found := strings.Cut(val, "@")
	if !found {
		return Loss{}, fmt.Errorf("want method@time")
	}
	loss := Loss{Method: method}
	if m, inst, hasInst := strings.Cut(method, "#"); hasInst {
		loss.Method = m
		if inst == "*" {
			loss.Instance = -1
		} else {
			n, err := strconv.Atoi(inst)
			if err != nil || n < 0 {
				return Loss{}, fmt.Errorf("bad instance %q", inst)
			}
			loss.Instance = n
		}
	}
	at, until, hasUntil := strings.Cut(window, "-")
	var err error
	if loss.At, err = time.ParseDuration(at); err != nil {
		return Loss{}, err
	}
	if hasUntil {
		if loss.Until, err = time.ParseDuration(until); err != nil {
			return Loss{}, err
		}
		// Until 0 means "never heals"; an explicit heal must follow the loss.
		if loss.Until <= loss.At {
			return Loss{}, fmt.Errorf("heals at %v, not after the loss at %v", loss.Until, loss.At)
		}
	}
	return loss, nil
}

// String renders the plan back in ParsePlan syntax (loss instances and
// defaults included only when set), for logs and /healthz.
func (p Plan) String() string {
	var parts []string
	add := func(format string, args ...any) { parts = append(parts, fmt.Sprintf(format, args...)) }
	add("seed=%d", p.Seed)
	if p.Transient > 0 {
		add("transient=%g", p.Transient)
	}
	if p.Spike > 0 {
		add("spike=%g", p.Spike)
		if p.SpikeFactor >= 1 {
			add("spikefactor=%g", p.SpikeFactor)
		}
	}
	if p.Stuck > 0 {
		add("stuck=%g", p.Stuck)
		if p.StuckFor > 0 {
			add("stuckfor=%s", p.StuckFor)
		}
	}
	if p.Flap > 0 {
		add("flap=%s", p.Flap)
	}
	for _, l := range p.Lose {
		m := l.Method
		if l.Instance < 0 {
			m += "#*"
		} else if l.Instance > 0 {
			m += "#" + strconv.Itoa(l.Instance)
		}
		if l.Until > 0 {
			add("lose=%s@%s-%s", m, l.At, l.Until)
		} else {
			add("lose=%s@%s", m, l.At)
		}
	}
	return strings.Join(parts, ",")
}
