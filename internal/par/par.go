// Package par provides the small parallel-execution helpers the cluster
// simulation uses to fan work across cores: a chunked parallel for-loop and
// a deterministic parallel map/reduce.
//
// The helpers follow the worker-pool idiom: a fixed number of goroutines
// pull index ranges from a shared cursor, so load imbalance between items
// (some node cards idle, some loaded) does not serialize the sweep. Results
// are written into per-index slots, so output is deterministic regardless
// of scheduling.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultWorkers is the worker count used when a caller passes workers <= 0.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// chunkSize picks a grain that amortizes cursor contention without starving
// workers on small n.
func chunkSize(n, workers int) int {
	c := n / (workers * 8)
	if c < 1 {
		c = 1
	}
	return c
}

// For runs fn(i) for every i in [0, n) across the given number of workers.
// fn must be safe to call concurrently for distinct i. For blocks until all
// iterations complete.
func For(n, workers int, fn func(i int)) {
	forChunked(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// forChunked runs fn(lo, hi) over disjoint chunks covering [0, n). Useful
// when per-chunk setup (a scratch buffer, an RNG) is worth amortizing.
func forChunked(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = defaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		fn(0, n)
		return
	}
	chunk := chunkSize(n, workers)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				lo := int(cursor.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				fn(lo, hi)
			}
		}()
	}
	wg.Wait()
}

// mapSlots computes out[i] = fn(i) for i in [0, n) in parallel and returns the
// slice. Deterministic: slot i always holds fn(i).
func mapSlots[T any](n, workers int, fn func(i int) T) []T {
	out := make([]T, n)
	For(n, workers, func(i int) { out[i] = fn(i) })
	return out
}

// SumOrdered computes fn(i) in parallel but folds the results in index
// order, so the floating-point sum is bit-identical across runs and worker
// counts.
func SumOrdered(n, workers int, fn func(i int) float64) float64 {
	vals := mapSlots(n, workers, fn)
	var total float64
	for _, v := range vals {
		total += v
	}
	return total
}
