package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank quantile of an ascending sample: the
// smallest value with at least q of the sample at or below it.
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(asc)))) - 1
	return asc[min(max(i, 0), len(asc)-1)]
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// low is the 5th percentile: the statistic the end-to-end timings are
// taken at. On a shared host interference only ever adds time, so the fast
// tail of many identical operations is what the program itself costs and
// moves least when the neighbours change (see endToEndMetrics).
func low(xs []float64) float64 { return quantile(sorted(xs), 0.05) }

// tailPerMille are the tails the harness will report, ascending, in
// thousandths so that the rule below is integer arithmetic.
var tailPerMille = []int{900, 950, 990, 999}

// supportedTail is the reporting rule for tails: the highest percentile
// with at least ten samples beyond it, 0 when even p90 has fewer (under a
// hundred samples only the median is reported).
func supportedTail(n int) float64 {
	best := 0
	for _, p := range tailPerMille {
		if n*(1000-p) >= 10*1000 {
			best = p
		}
	}
	return float64(best) / 10
}
