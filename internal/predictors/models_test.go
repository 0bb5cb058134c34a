package predictors

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestLast(t *testing.T) {
	p := NewLast()
	got, err := p.Predict([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Errorf("LAST = %g, want 3", got)
	}
	if _, err := p.Predict(nil); !errors.Is(err, ErrWindowTooShort) {
		t.Error("LAST accepted empty window")
	}
	if err := p.Fit(nil); err != nil {
		t.Error("LAST Fit should never fail")
	}
}

func TestSWAvg(t *testing.T) {
	p := NewSWAvg(3)
	got, err := p.Predict([]float64{100, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("SW_AVG = %g, want 2 (mean of trailing 3)", got)
	}
	if _, err := p.Predict([]float64{1, 2}); !errors.Is(err, ErrWindowTooShort) {
		t.Error("SW_AVG accepted short window")
	}
}

func TestSWAvgPanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSWAvg(0) did not panic")
		}
	}()
	NewSWAvg(0)
}

func TestARRecoversKnownProcess(t *testing.T) {
	// Long AR(2) realization; Yule–Walker should recover the coefficients.
	phi1, phi2 := 0.6, -0.3
	rng := rand.New(rand.NewSource(2))
	const n = 100000
	v := make([]float64, n)
	for i := 2; i < n; i++ {
		v[i] = phi1*v[i-1] + phi2*v[i-2] + rng.NormFloat64()
	}
	ar := NewAR(2)
	if err := ar.Fit(v); err != nil {
		t.Fatal(err)
	}
	if ar.fallback {
		t.Fatal("AR fell back despite healthy data")
	}
	if coef := ar.phi; math.Abs(coef[0]-phi1) > 0.02 || math.Abs(coef[1]-phi2) > 0.02 {
		t.Errorf("coefficients = %v, want [%g %g]", coef, phi1, phi2)
	}
}

func TestARPredictUsesRecentSamplesFirst(t *testing.T) {
	// phi = [1] (approx): prediction should track the last window sample.
	rng := rand.New(rand.NewSource(3))
	v := make([]float64, 50000)
	for i := 1; i < len(v); i++ {
		v[i] = 0.95*v[i-1] + 0.1*rng.NormFloat64()
	}
	ar := NewAR(1)
	if err := ar.Fit(v); err != nil {
		t.Fatal(err)
	}
	got, err := ar.Predict([]float64{0, 0, 10})
	if err != nil {
		t.Fatal(err)
	}
	if got < 5 {
		t.Errorf("AR(1) prediction %g should follow the last sample (≈9.5)", got)
	}
}

func TestARUnfitted(t *testing.T) {
	ar := NewAR(2)
	if _, err := ar.Predict([]float64{1, 2}); !errors.Is(err, ErrNotFitted) {
		t.Errorf("unfitted AR err = %v, want ErrNotFitted", err)
	}
}

func TestARFallbackOnDegenerateData(t *testing.T) {
	cases := [][]float64{
		{},                          // empty
		{1, 2},                      // too short for p=3
		{5, 5, 5, 5, 5, 5},          // constant: zero variance
		{1, math.NaN(), 2, 3, 4, 5}, // NaN poisons autocovariance
	}
	for i, train := range cases {
		ar := NewAR(3)
		if err := ar.Fit(train); err != nil {
			t.Fatalf("case %d: Fit should not fail on degenerate data: %v", i, err)
		}
		if !ar.fallback {
			t.Errorf("case %d: expected fallback, got coefficients %v", i, ar.phi)
		}
		got, err := ar.Predict([]float64{7, 8, 9})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got != 9 {
			t.Errorf("case %d: fallback prediction = %g, want LAST (9)", i, got)
		}
	}
}

func TestARWindowTooShort(t *testing.T) {
	ar := fitted(t, NewAR(3), []float64{1, 2, 1, 2, 1, 2, 1, 2})
	if _, err := ar.Predict([]float64{1, 2}); !errors.Is(err, ErrWindowTooShort) {
		t.Error("AR accepted short window")
	}
}

func TestRunAvg(t *testing.T) {
	p := NewRunAvg()
	got, err := p.Predict([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2.5 {
		t.Errorf("RUN_AVG = %g, want 2.5", got)
	}
}

func TestMeanPredictor(t *testing.T) {
	p := NewMeanPredictor()
	if _, err := p.Predict([]float64{1}); !errors.Is(err, ErrNotFitted) {
		t.Error("unfitted MEAN did not error")
	}
	fitted(t, p, []float64{2, 4, 6})
	got, err := p.Predict([]float64{999})
	if err != nil {
		t.Fatal(err)
	}
	if got != 4 {
		t.Errorf("MEAN = %g, want 4", got)
	}
}

func TestSWMedian(t *testing.T) {
	p := NewSWMedian(3)
	got, err := p.Predict([]float64{-100, 1, 100, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("SW_MEDIAN = %g, want 2 (median of 1,100,2)", got)
	}
	// Even-length median averages the middle pair.
	p2 := NewSWMedian(4)
	got, err = p2.Predict([]float64{4, 1, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2.5 {
		t.Errorf("even SW_MEDIAN = %g, want 2.5", got)
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	w := []float64{3, 1, 2}
	p := NewSWMedian(3)
	if _, err := p.Predict(w); err != nil {
		t.Fatal(err)
	}
	if w[0] != 3 || w[1] != 1 || w[2] != 2 {
		t.Error("SW_MEDIAN sorted the caller's window")
	}
}

func TestExpSmooth(t *testing.T) {
	p := NewExpSmooth(0.5)
	// s = 0; s = .5*4+.5*0 = 2; s = .5*4+.5*2 = 3
	got, err := p.Predict([]float64{0, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Errorf("EXP_SMOOTH = %g, want 3", got)
	}
	// alpha = 1 is LAST.
	p1 := NewExpSmooth(1)
	got, _ = p1.Predict([]float64{1, 2, 9})
	if got != 9 {
		t.Errorf("EXP_SMOOTH(1) = %g, want 9", got)
	}
}

func TestExpSmoothPanicsOnBadAlpha(t *testing.T) {
	for _, alpha := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewExpSmooth(%g) did not panic", alpha)
				}
			}()
			NewExpSmooth(alpha)
		}()
	}
}

func TestTendency(t *testing.T) {
	p := NewTendency(0.5)
	got, err := p.Predict([]float64{1, 3}) // rising by 2 → 3 + 0.5*2 = 4
	if err != nil {
		t.Fatal(err)
	}
	if got != 4 {
		t.Errorf("TENDENCY rising = %g, want 4", got)
	}
	got, _ = p.Predict([]float64{3, 1}) // falling by 2 → 1 - 1 = 0
	if got != 0 {
		t.Errorf("TENDENCY falling = %g, want 0", got)
	}
	got, _ = p.Predict([]float64{2, 2}) // flat
	if got != 2 {
		t.Errorf("TENDENCY flat = %g, want 2", got)
	}
}

func TestPolyFitExactOnPolynomialData(t *testing.T) {
	// A quadratic fit over exact quadratic data must extrapolate exactly.
	w := make([]float64, 6)
	for i := range w {
		x := float64(i)
		w[i] = 2*x*x - 3*x + 1
	}
	p := NewPolyFit(2, 6)
	got, err := p.Predict(w)
	if err != nil {
		t.Fatal(err)
	}
	want := 2*36.0 - 3*6 + 1
	if !almostEqual(got, want, 1e-6) {
		t.Errorf("POLY_FIT = %g, want %g", got, want)
	}
}

func TestPolyFitLinearData(t *testing.T) {
	p := NewPolyFit(1, 4)
	got, err := p.Predict([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 5, 1e-9) {
		t.Errorf("linear POLY_FIT = %g, want 5", got)
	}
}

func TestPolyFitConstructorPanics(t *testing.T) {
	for _, c := range []struct{ d, m int }{{0, 5}, {3, 3}, {5, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPolyFit(%d,%d) did not panic", c.d, c.m)
				}
			}()
			NewPolyFit(c.d, c.m)
		}()
	}
}

func TestAdaptiveWindowAvgPicksGoodWindow(t *testing.T) {
	p := NewAdaptiveWindowAvg(8)
	// Level shift: old level 0, new level 10. A short window adapts; the
	// adaptive expert should predict near 10, not the long-window mean.
	w := []float64{0, 0, 0, 0, 10, 10, 10, 10}
	got, err := p.Predict(w)
	if err != nil {
		t.Fatal(err)
	}
	if got < 9 {
		t.Errorf("ADAPT_AVG = %g, want ~10 after level shift", got)
	}
}

func TestAdaptiveWindowMedianRobustToSpike(t *testing.T) {
	p := NewAdaptiveWindowMedian(8)
	w := []float64{5, 5, 5, 100, 5, 5, 5, 5}
	got, err := p.Predict(w)
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Errorf("ADAPT_MEDIAN = %g, want 5 despite spike", got)
	}
}

func TestAdaptiveConstructorsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewAdaptiveWindowAvg(0) did not panic")
		}
	}()
	NewAdaptiveWindowAvg(0)
}

func TestTendencyPanicsOnBadBeta(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTendency(0) did not panic")
		}
	}()
	NewTendency(0)
}
