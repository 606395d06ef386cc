package obs

import (
	"testing"
	"time"

	"envmon/internal/core"
)

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("envmon_bench_total", "bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("envmon_bench_seconds", "bench", DefLatencyBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(12e-6)
	}
}

type benchCollector struct{ buf []core.Reading }

func (benchCollector) Platform() core.Platform    { return core.RAPL }
func (benchCollector) Method() string             { return "bench" }
func (benchCollector) MinInterval() time.Duration { return 0 }
func (benchCollector) Cost() time.Duration        { return 30 * time.Microsecond }
func (c benchCollector) CollectInto(buf []core.Reading, now time.Duration) ([]core.Reading, error) {
	return append(buf, core.Reading{}), nil
}

func BenchmarkWrappedCollectInto(b *testing.B) {
	r := NewRegistry()
	tr := NewTracer(r)
	ic := wrapCollector(benchCollector{}, r, tr)
	buf := make([]core.Reading, 0, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		var err error
		buf, err = ic.CollectInto(buf, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func TestWrappedCollectIntoZeroAlloc(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(r)
	ic := wrapCollector(benchCollector{}, r, tr)
	buf := make([]core.Reading, 0, 8)
	allocs := testing.AllocsPerRun(200, func() {
		buf = buf[:0]
		var err error
		buf, err = ic.CollectInto(buf, 0)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("instrumented CollectInto allocates %.1f per op, want 0", allocs)
	}
}
