//go:build gate

package storage

import (
	"testing"

	"envmon/internal/benchgate"
)

// TestGateScaledDecode: decoding a quarter-watt chunk whose values are in
// scaled mode costs no more than decoding the same points held to XOR, so
// over 15 rounds the median scaled/XOR ratio stays at or under 1.0. The
// history read path decodes every sealed point, and would slow unseen if
// the scaled column's decoder did.
func TestGateScaledDecode(t *testing.T) {
	benchgate.Median(t, 15, 1.0, BenchmarkDecodeScaled, BenchmarkDecodeXOR)
}
