//go:build gate

package telemetry

import (
	"testing"

	"envmon/internal/benchgate"
)

// TestGateInstrumentationOverhead: ingest is instrumented at zero marginal
// cost, so over 15 rounds the median instrumented/plain ratio stays under
// 1.10, which absorbs shared-runner noise while catching a real
// per-sample regression (one extra time.Now() per instrumented sample
// read 1.79).
func TestGateInstrumentationOverhead(t *testing.T) {
	benchgate.Median(t, 15, 1.10, BenchmarkIngestInstrumented, BenchmarkIngestPlain)
}
