package cluster

import (
	"testing"
	"time"

	"envmon/internal/core"
	"envmon/internal/workload"
)

// TestNodeThrottleReducesPower drives a GPU node hard, throttles it
// mid-run, and checks the board power drops toward idle while an
// unthrottled neighbor keeps drawing.
func TestNodeThrottleReducesPower(t *testing.T) {
	c, err := NewGPUCluster(2, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	w := workload.VectorAdd(time.Second, 5*time.Minute)
	c.Run(w, 0, 0)

	// Let the K20's power-ramp lag settle inside device-compute.
	busy := 60 * time.Second
	p0 := c.Nodes[0].SumPower(core.NVML, busy)
	p1 := c.Nodes[1].SumPower(core.NVML, busy)
	if p0 < 100 || p1 < 100 {
		t.Fatalf("uncapped boards idle? p0=%.1f p1=%.1f", p0, p1)
	}

	if err := c.Nodes[0].SetThrottle(busy, 0); err != nil {
		t.Fatal(err)
	}
	// Well past the lag time constant after the throttle.
	later := busy + 30*time.Second
	capped := c.Nodes[0].SumPower(core.NVML, later)
	free := c.Nodes[1].SumPower(core.NVML, later)
	if capped >= p0*0.6 {
		t.Errorf("throttled node at %.1f W (was %.1f W); duty-cycle not biting", capped, p0)
	}
	if free < p1*0.8 {
		t.Errorf("unthrottled neighbor dropped to %.1f W (was %.1f W)", free, p1)
	}
	if got := c.Nodes[0].ThrottleAt(later); got != 0 {
		t.Errorf("ThrottleAt = %v, want 0", got)
	}
	if got := c.Nodes[1].ThrottleAt(later); got != 1 {
		t.Errorf("neighbor ThrottleAt = %v, want 1", got)
	}
}

// TestClusterThrottleAppliesToLaterJobs caps the fleet first and starts the
// job after: the schedule must bind jobs launched later too.
func TestClusterThrottleAppliesToLaterJobs(t *testing.T) {
	c, err := NewGPUCluster(1, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetThrottle(0, 0.0); err != nil {
		t.Fatal(err)
	}
	c.Run(workload.VectorAdd(time.Second, 5*time.Minute), 0, 0)
	// At factor 0 the board never leaves idle; K20 idles ~16-25 W.
	if p := c.SumPower(core.NVML, 60*time.Second); p > 60 {
		t.Errorf("fully throttled board draws %.1f W", p)
	}
}

// TestThrottleHistoryImmutable ensures a cap applied at t does not change
// power already drawn before t (lazy energy integration must replay the
// uncapped past).
func TestThrottleHistoryImmutable(t *testing.T) {
	mk := func(capAt time.Duration) float64 {
		c, err := NewGPUCluster(1, 1, 7)
		if err != nil {
			t.Fatal(err)
		}
		c.Run(workload.VectorAdd(time.Second, 5*time.Minute), 0, 0)
		if capAt > 0 {
			// Advance reads to capAt first: reads are non-decreasing.
			_ = c.SumPower(core.NVML, capAt)
			if err := c.SetThrottle(capAt, 0); err != nil {
				t.Fatal(err)
			}
		}
		return c.SumPower(core.NVML, 60*time.Second)
	}
	uncapped := mk(0)
	cappedLate := func() float64 {
		c, err := NewGPUCluster(1, 1, 7)
		if err != nil {
			t.Fatal(err)
		}
		c.Run(workload.VectorAdd(time.Second, 5*time.Minute), 0, 0)
		p := c.SumPower(core.NVML, 60*time.Second) // read before the cap exists
		if err := c.SetThrottle(90*time.Second, 0); err != nil {
			t.Fatal(err)
		}
		return p
	}()
	if uncapped != cappedLate {
		t.Errorf("pre-cap power changed: %.3f vs %.3f", uncapped, cappedLate)
	}
}
