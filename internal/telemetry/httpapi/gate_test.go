//go:build gate

package httpapi

import (
	"testing"

	"envmon/internal/benchgate"
)

// TestGateDecoderAgainstJSON: the codec decodes a 10 240-point history
// reply in the stack's own numbers (quarter watts, 50 ms apart) at most
// 0.065 times as slowly as encoding/json, median of 15 rounds. On a 2-vCPU
// host the median was 0.045 (0.026 .. 0.051) with one pass over the body
// and 0.085 (0.073 .. 0.107) with every number read twice.
func TestGateDecoderAgainstJSON(t *testing.T) {
	benchgate.Median(t, 15, 0.065, BenchmarkDecodeQuantized, BenchmarkDecodeQuantizedJSON)
}
