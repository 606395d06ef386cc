package simclock

import (
	"testing"
	"time"
)

func TestNowStartsAtEpoch(t *testing.T) {
	c := New()
	if got := c.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
}

func TestAdvanceMovesTime(t *testing.T) {
	c := New()
	c.Advance(5 * time.Second)
	if got := c.Now(); got != 5*time.Second {
		t.Fatalf("Now() = %v, want 5s", got)
	}
	c.Advance(0)
	if got := c.Now(); got != 5*time.Second {
		t.Fatalf("Now() after Advance(0) = %v, want 5s", got)
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	New().Advance(-time.Second)
}

func TestAfterFuncFiresAtDeadline(t *testing.T) {
	c := New()
	var firedAt time.Duration = -1
	c.AfterFunc(100*time.Millisecond, func(now time.Duration) { firedAt = now })

	c.Advance(99 * time.Millisecond)
	if firedAt != -1 {
		t.Fatalf("timer fired early at %v", firedAt)
	}
	c.Advance(time.Millisecond)
	if firedAt != 100*time.Millisecond {
		t.Fatalf("firedAt = %v, want 100ms", firedAt)
	}
}

func TestAfterFuncZeroFiresOnNextAdvance(t *testing.T) {
	c := New()
	fired := false
	c.AfterFunc(0, func(time.Duration) { fired = true })
	c.Advance(0)
	if !fired {
		t.Fatal("zero-delay timer did not fire on Advance(0)")
	}
}

func TestCallbackSeesEventTimeNotTarget(t *testing.T) {
	c := New()
	var sawNow time.Duration
	c.AfterFunc(30*time.Millisecond, func(now time.Duration) { sawNow = now })
	c.Advance(time.Second)
	if sawNow != 30*time.Millisecond {
		t.Fatalf("callback now = %v, want 30ms", sawNow)
	}
}

func TestOrderingAndFIFOTiebreak(t *testing.T) {
	c := New()
	var order []int
	c.AfterFunc(20*time.Millisecond, func(time.Duration) { order = append(order, 3) })
	c.AfterFunc(10*time.Millisecond, func(time.Duration) { order = append(order, 1) })
	c.AfterFunc(10*time.Millisecond, func(time.Duration) { order = append(order, 2) })
	c.Advance(time.Second)
	want := []int{1, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("fired %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEveryFiresPeriodically(t *testing.T) {
	c := New()
	var times []time.Duration
	c.Every(100*time.Millisecond, func(now time.Duration) { times = append(times, now) })
	c.Advance(350 * time.Millisecond)
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 300 * time.Millisecond}
	if len(times) != len(want) {
		t.Fatalf("fired %d times (%v), want %d", len(times), times, len(want))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestEveryFromFiresAtStart(t *testing.T) {
	c := New()
	var times []time.Duration
	c.EveryFrom(0, time.Second, func(now time.Duration) { times = append(times, now) })
	c.Advance(2 * time.Second)
	if len(times) != 3 || times[0] != 0 || times[1] != time.Second || times[2] != 2*time.Second {
		t.Fatalf("times = %v, want [0s 1s 2s]", times)
	}
}

func TestStopPreventsFiring(t *testing.T) {
	c := New()
	fired := false
	tm := c.AfterFunc(time.Second, func(time.Duration) { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop() = false on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true, want false")
	}
	c.Advance(2 * time.Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestStopAfterFireReturnsFalse(t *testing.T) {
	c := New()
	tm := c.AfterFunc(time.Millisecond, func(time.Duration) {})
	c.Advance(time.Second)
	if tm.Stop() {
		t.Fatal("Stop() = true after one-shot fired")
	}
}

func TestStopPeriodicFromCallback(t *testing.T) {
	c := New()
	count := 0
	var tm TimerHandle
	tm = c.Every(time.Millisecond, func(time.Duration) {
		count++
		if count == 3 {
			tm.Stop()
		}
	})
	c.Advance(time.Second)
	if count != 3 {
		t.Fatalf("count = %d, want 3 (ticker should stop itself)", count)
	}
}

func TestCallbackSchedulingCascade(t *testing.T) {
	c := New()
	var seq []time.Duration
	c.AfterFunc(time.Millisecond, func(now time.Duration) {
		seq = append(seq, now)
		c.AfterFunc(time.Millisecond, func(now time.Duration) {
			seq = append(seq, now)
		})
	})
	c.Advance(time.Second)
	if len(seq) != 2 || seq[0] != time.Millisecond || seq[1] != 2*time.Millisecond {
		t.Fatalf("seq = %v, want [1ms 2ms]", seq)
	}
}

func TestReentrantAdvancePanics(t *testing.T) {
	c := New()
	c.AfterFunc(time.Millisecond, func(time.Duration) {
		defer func() {
			if recover() == nil {
				t.Error("re-entrant Advance did not panic")
			}
		}()
		c.Advance(time.Millisecond)
	})
	c.Advance(time.Second)
}

func TestAtClampsPastToNow(t *testing.T) {
	c := New()
	c.Advance(time.Minute)
	var firedAt time.Duration = -1
	c.At(time.Second, func(now time.Duration) { firedAt = now })
	c.Advance(0)
	if firedAt != time.Minute {
		t.Fatalf("past At fired at %v, want clamp to 1m", firedAt)
	}
}

func TestManyTimersHeapStress(t *testing.T) {
	c := New()
	const n = 1000
	fired := make([]bool, n)
	// Schedule in a scrambled but deterministic order.
	for i := 0; i < n; i++ {
		j := (i*7919 + 13) % n
		idx := j
		c.AfterFunc(time.Duration(j+1)*time.Millisecond, func(time.Duration) { fired[idx] = true })
	}
	c.Advance(2 * n * time.Millisecond)
	for i, f := range fired {
		if !f {
			t.Fatalf("timer %d did not fire", i)
		}
	}
}

func BenchmarkScheduleAndFire(b *testing.B) {
	c := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.AfterFunc(time.Millisecond, func(time.Duration) {})
		c.Advance(time.Millisecond)
	}
}
