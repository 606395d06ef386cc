//go:build gate

// Package benchgate is the one rule behind CI's benchmark gates: two
// benchmarks run back to back in each of many short rounds, so whatever
// the runner is doing at that moment (frequency scaling, noisy
// neighbours) hits both sides and the round's ratio cancels it; the median
// over the rounds drops the rounds where it did not. Many short rounds,
// not a few long ones: on a busy 2-vCPU host the instrumentation gate's
// median read 0.96–1.06 over five runs of an unchanged tree, where the
// fastest round per side over 7 rounds of 2 s strayed to 0.92–1.15.
//
// Every file of the package and of the gates carries the gate build tag,
// so ./... builds none of it:
//
//	go test -tags gate -run '^TestGate' -v ./internal/telemetry/...
package benchgate

import (
	"slices"
	"testing"
)

// Median runs num then den, each through testing.Benchmark (so for
// -test.benchtime, 1 s by default), in each of rounds rounds, and fails t
// when the median of the rounds' num/den time-per-op ratios exceeds limit.
func Median(t *testing.T, rounds int, limit float64, num, den func(*testing.B)) {
	t.Helper()
	ratios := make([]float64, rounds)
	for i := range ratios {
		n, d := testing.Benchmark(num), testing.Benchmark(den)
		if n.N == 0 || d.N == 0 {
			t.Fatalf("round %d: a benchmark failed", i)
		}
		ratios[i] = float64(n.T) / float64(n.N) / (float64(d.T) / float64(d.N))
		t.Logf("round %d: %v / %v = %.3f", i, n, d, ratios[i])
	}
	slices.Sort(ratios)
	median := ratios[rounds/2]
	t.Logf("median %.3f over %d rounds (%.3f .. %.3f), limit %.3f", median, rounds, ratios[0], ratios[rounds-1], limit)
	if median > limit {
		t.Errorf("median ratio %.3f exceeds %.3f", median, limit)
	}
}
