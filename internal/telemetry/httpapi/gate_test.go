//go:build gate

package httpapi

import (
	"testing"

	"envmon/internal/benchgate"
)

// TestGateDecoderAgainstJSON: the codec decodes a 10 240-sample history
// reply in the stack's own numbers (quarter watts, 50 ms apart) at most
// 0.065 times as slowly as encoding/json decodes the same samples spelled
// as point objects, median of 15 rounds. The reference is that fixed
// spelling, not encoding/json on the codec's own body: encoding/json reads
// flat number columns about four times as fast as point objects, so
// holding the codec to it on the new body would move the bar with the
// format rather than with the codec.
func TestGateDecoderAgainstJSON(t *testing.T) {
	benchgate.Median(t, 15, 0.065, BenchmarkDecodeQuantized, BenchmarkDecodeQuantizedPointsJSON)
}
