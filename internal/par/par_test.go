package par

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversAllIndicesOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		const n = 1000
		counts := make([]int32, n)
		For(n, workers, func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEmptyAndTiny(t *testing.T) {
	For(0, 4, func(int) { t.Fatal("called for n=0") })
	ran := false
	For(1, 16, func(i int) { ran = true })
	if !ran {
		t.Fatal("n=1 not executed")
	}
}

func TestForChunkedDisjointCoverage(t *testing.T) {
	const n = 997 // prime, to exercise ragged chunks
	covered := make([]int32, n)
	forChunked(n, 5, func(lo, hi int) {
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("bad chunk [%d,%d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&covered[i], 1)
		}
	})
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("index %d covered %d times", i, c)
		}
	}
}

func TestMapDeterministic(t *testing.T) {
	sq := func(i int) int { return i * i }
	a := mapSlots(500, 8, sq)
	b := mapSlots(500, 3, sq)
	for i := range a {
		if a[i] != i*i || a[i] != b[i] {
			t.Fatalf("mapSlots[%d] = %d", i, a[i])
		}
	}
}

func TestSumOrderedBitExactAcrossWorkerCounts(t *testing.T) {
	f := func(i int) float64 { return 1.0 / float64(i+1) }
	ref := SumOrdered(5000, 1, f)
	for _, w := range []int{2, 3, 8, 32} {
		if got := SumOrdered(5000, w, f); got != ref {
			t.Fatalf("workers=%d: %v != %v", w, got, ref)
		}
	}
}

func TestSumOrderedProperty(t *testing.T) {
	check := func(seed uint8) bool {
		n := int(seed)%200 + 1
		f := func(i int) float64 { return float64((i*31+int(seed))%17) * 0.25 }
		var want float64
		for i := 0; i < n; i++ {
			want += f(i)
		}
		return SumOrdered(n, 4, f) == want
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if defaultWorkers() < 1 {
		t.Fatal("defaultWorkers < 1")
	}
}

func BenchmarkForParallel(b *testing.B) {
	work := func(i int) {
		s := 0
		for j := 0; j < 100; j++ {
			s += j * i
		}
		_ = s
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		For(1024, 0, work)
	}
}

func BenchmarkForSerial(b *testing.B) {
	work := func(i int) {
		s := 0
		for j := 0; j < 100; j++ {
			s += j * i
		}
		_ = s
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		For(1024, 1, work)
	}
}
