package stats

import (
	"math"
	"testing"
	"testing/quick"

	"envmon/internal/simrand"
)

func almost(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) == math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol
}

func TestDescribeBasic(t *testing.T) {
	s := Describe([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Fatalf("N = %d, want 8", s.N)
	}
	if !almost(s.Mean, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", s.Mean)
	}
	// population variance is 4; sample variance = 32/7
	if !almost(s.Variance, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", s.Variance, 32.0/7.0)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", s.Min, s.Max)
	}
	if !almost(s.Sum, 40, 1e-12) {
		t.Errorf("Sum = %v, want 40", s.Sum)
	}
}

func TestDescribeEmptyAndSingleton(t *testing.T) {
	e := Describe(nil)
	if e.N != 0 || !math.IsNaN(e.Min) || !math.IsNaN(e.Max) {
		t.Errorf("empty Describe = %+v", e)
	}
	s := Describe([]float64{3.5})
	if s.N != 1 || s.Mean != 3.5 || s.Variance != 0 || s.Min != 3.5 || s.Max != 3.5 {
		t.Errorf("singleton Describe = %+v", s)
	}
}

func TestDescribeNumericalStability(t *testing.T) {
	// Large offset, tiny variance: naive sum-of-squares would cancel.
	base := 1e9
	xs := []float64{base + 1, base + 2, base + 3}
	s := Describe(xs)
	if !almost(s.Variance, 1, 1e-6) {
		t.Errorf("Variance = %v, want 1 (catastrophic cancellation?)", s.Variance)
	}
}

// wellBehaved reports whether all values are finite and small enough that
// sums and ranges cannot overflow float64 (quick.Check generates values up
// to ±MaxFloat64, whose differences are ±Inf — not meaningful inputs here).
func wellBehaved(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e150 {
			return false
		}
	}
	return true
}

func TestMeanMatchesDescribe(t *testing.T) {
	f := func(xs []float64) bool {
		if !wellBehaved(xs) {
			return true // skip pathological inputs
		}
		if len(xs) == 0 {
			return math.IsNaN(Mean(xs))
		}
		d := Describe(xs)
		scale := math.Max(1, math.Abs(d.Mean))
		return almost(Mean(xs), d.Mean, 1e-9*scale)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoxplotBasic(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100}
	b := MakeBoxplot(xs)
	if b.N != 10 || b.Min != 1 || b.Max != 100 {
		t.Fatalf("N/Min/Max = %d/%v/%v", b.N, b.Min, b.Max)
	}
	if b.Med != 5.5 {
		t.Errorf("Med = %v, want 5.5", b.Med)
	}
	if len(b.Outliers) != 1 || b.Outliers[0] != 100 {
		t.Errorf("Outliers = %v, want [100]", b.Outliers)
	}
	if b.HighWhisker == 100 {
		t.Error("high whisker includes outlier")
	}
	if b.LowWhisker != 1 {
		t.Errorf("LowWhisker = %v, want 1", b.LowWhisker)
	}
}

func TestBoxplotInvariants(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 || !wellBehaved(xs) {
			return true
		}
		b := MakeBoxplot(xs)
		ordered := b.Min <= b.LowWhisker && b.LowWhisker <= b.Q1 &&
			b.Q1 <= b.Med && b.Med <= b.Q3 &&
			b.Q3 <= b.HighWhisker && b.HighWhisker <= b.Max
		// every outlier is outside the fences
		for _, o := range b.Outliers {
			if o >= b.Q1-1.5*b.IQR && o <= b.Q3+1.5*b.IQR {
				return false
			}
		}
		return ordered
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoxplotEmpty(t *testing.T) {
	b := MakeBoxplot(nil)
	if b.N != 0 {
		t.Fatalf("empty boxplot N = %d", b.N)
	}
}

func TestWelchTEqualSamples(t *testing.T) {
	a := []float64{10, 11, 12, 13, 14}
	r := WelchT(a, a)
	if r.T != 0 {
		t.Errorf("T = %v, want 0 for identical samples", r.T)
	}
	if r.P < 0.99 {
		t.Errorf("P = %v, want ~1 for identical samples", r.P)
	}
}

func TestWelchTClearDifference(t *testing.T) {
	rng := simrand.New(42)
	var a, b []float64
	for i := 0; i < 200; i++ {
		a = append(a, rng.Normal(117, 0.5)) // "API" power
		b = append(b, rng.Normal(113, 0.5)) // "daemon" power
	}
	r := WelchT(a, b)
	if r.T <= 0 {
		t.Errorf("T = %v, want positive (mean(a) > mean(b))", r.T)
	}
	if r.P > 1e-6 {
		t.Errorf("P = %v, want << 0.01 for 4W separation", r.P)
	}
}

func TestWelchTKnownValue(t *testing.T) {
	// Reference values computed independently (Python, Welch formulas +
	// regularized incomplete beta): t = -2.894164, df = 27.9172, p = 0.0072980.
	a := []float64{27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1, 21.9, 22.6, 23.1, 19.6, 19.0, 21.7, 21.4}
	b := []float64{27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0, 24.8, 20.2, 21.9, 22.1, 22.9, 30.5, 25.2}
	r := WelchT(a, b)
	if !almost(r.T, -2.8941644550554044, 1e-9) {
		t.Errorf("T = %v, want -2.894164", r.T)
	}
	if !almost(r.DF, 27.91724056273939, 1e-8) {
		t.Errorf("DF = %v, want 27.91724", r.DF)
	}
	if !almost(r.P, 0.007297955930127711, 1e-10) {
		t.Errorf("P = %v, want 0.00729796", r.P)
	}
}

func TestWelchTDegenerate(t *testing.T) {
	r := WelchT([]float64{1}, []float64{2, 3})
	if !math.IsNaN(r.T) || !math.IsNaN(r.P) {
		t.Errorf("undersized sample should give NaN, got %+v", r)
	}
	r = WelchT([]float64{5, 5, 5}, []float64{5, 5, 5})
	if r.P != 1 || r.T != 0 {
		t.Errorf("identical constants: %+v, want T=0 P=1", r)
	}
	r = WelchT([]float64{5, 5, 5}, []float64{6, 6, 6})
	if r.P != 0 || !math.IsInf(r.T, -1) {
		t.Errorf("different constants: %+v, want T=-Inf P=0", r)
	}
}

func TestRegIncBetaEdges(t *testing.T) {
	if got := regIncBeta(2, 3, 0); got != 0 {
		t.Errorf("I_0 = %v, want 0", got)
	}
	if got := regIncBeta(2, 3, 1); got != 1 {
		t.Errorf("I_1 = %v, want 1", got)
	}
	// I_x(1,1) = x (uniform CDF)
	for _, x := range []float64{0.1, 0.5, 0.9} {
		if got := regIncBeta(1, 1, x); !almost(got, x, 1e-10) {
			t.Errorf("I_%v(1,1) = %v, want %v", x, got, x)
		}
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a)
	got := regIncBeta(2.5, 4.5, 0.3) + regIncBeta(4.5, 2.5, 0.7)
	if !almost(got, 1, 1e-10) {
		t.Errorf("symmetry sum = %v, want 1", got)
	}
}

func TestStudentTSFAgainstNormalLimit(t *testing.T) {
	// For large df, t-dist -> standard normal. P(Z > 1.96) ~ 0.025.
	got := studentTSF(1.96, 1e6)
	if !almost(got, 0.025, 5e-4) {
		t.Errorf("studentTSF(1.96, 1e6) = %v, want ~0.025", got)
	}
	// t(1) is Cauchy: P(T > 1) = 0.25.
	got = studentTSF(1, 1)
	if !almost(got, 0.25, 1e-6) {
		t.Errorf("studentTSF(1,1) = %v, want 0.25", got)
	}
}

func BenchmarkDescribe(b *testing.B) {
	xs := make([]float64, 10000)
	rng := simrand.New(1)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Describe(xs)
	}
}

func BenchmarkWelchT(b *testing.B) {
	rng := simrand.New(1)
	xs := make([]float64, 1000)
	ys := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.Normal(100, 5)
		ys[i] = rng.Normal(101, 5)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = WelchT(xs, ys)
	}
}
