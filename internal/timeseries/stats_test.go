package timeseries

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVariance(t *testing.T) {
	v := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(v); !almostEqual(m, 5, 1e-12) {
		t.Errorf("Mean = %g, want 5", m)
	}
	if va := Variance(v); !almostEqual(va, 4, 1e-12) {
		t.Errorf("Variance = %g, want 4", va)
	}
	if sd := StdDev(v); !almostEqual(sd, 2, 1e-12) {
		t.Errorf("StdDev = %g, want 2", sd)
	}
}

func TestVarianceDegenerate(t *testing.T) {
	if Variance(nil) != 0 || Variance([]float64{5}) != 0 {
		t.Error("variance of <2 samples should be 0")
	}
}

func TestAutocovarianceLag0IsVariance(t *testing.T) {
	f := func(raw [16]float64) bool {
		v := raw[:]
		for _, x := range v {
			if math.IsNaN(x) || math.Abs(x) > 1e100 {
				return true // overflow regime is out of scope
			}
		}
		c0, err := Autocovariance(v, 0)
		if err != nil {
			return false
		}
		return almostEqual(c0, Variance(v), 1e-9*(1+math.Abs(c0)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAutocovarianceErrors(t *testing.T) {
	if _, err := Autocovariance([]float64{1, 2}, -1); err == nil {
		t.Error("accepted negative lag")
	}
	if _, err := Autocovariance([]float64{1, 2}, 2); err == nil {
		t.Error("accepted lag >= length")
	}
}

func TestAutocorrelationAR1(t *testing.T) {
	// Long AR(1) sample with phi = 0.8: lag-1 autocorrelation ≈ 0.8.
	rng := rand.New(rand.NewSource(1))
	const n = 200000
	v := make([]float64, n)
	for i := 1; i < n; i++ {
		v[i] = 0.8*v[i-1] + rng.NormFloat64()
	}
	rho1, err := Autocorrelation(v, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rho1-0.8) > 0.02 {
		t.Errorf("lag-1 autocorrelation = %g, want ~0.8", rho1)
	}
	rho0, _ := Autocorrelation(v, 0)
	if rho0 != 1 {
		t.Errorf("lag-0 autocorrelation = %g, want 1", rho0)
	}
}

func TestAutocorrelationConstantSeries(t *testing.T) {
	rho, err := Autocorrelation([]float64{3, 3, 3, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rho != 0 {
		t.Errorf("constant series lag-1 autocorrelation = %g, want 0", rho)
	}
}

func TestAutocorrelationLagValidation(t *testing.T) {
	// A zero-variance series must not mask out-of-range lags: every lag
	// outside [0, len) errors exactly as it does for a varying series.
	cases := []struct {
		name   string
		v      []float64
		k      int
		wantOK bool
	}{
		{"constant valid lag", []float64{3, 3, 3, 3}, 2, true},
		{"constant lag == len", []float64{3, 3, 3, 3}, 4, false},
		{"constant lag > len", []float64{3, 3, 3, 3}, 7, false},
		{"constant negative lag", []float64{3, 3, 3, 3}, -1, false},
		{"varying lag == len", []float64{1, 2, 3}, 3, false},
		{"empty series lag 0", nil, 0, false},
	}
	for _, tc := range cases {
		rho, err := Autocorrelation(tc.v, tc.k)
		if tc.wantOK {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: Autocorrelation(%v, %d) = %g, want error", tc.name, tc.v, tc.k, rho)
		}
	}
}

func TestAutocovarianceSeqPSD(t *testing.T) {
	// The biased estimator must produce |c_k| <= c_0.
	f := func(raw [32]float64, lag uint8) bool {
		v := raw[:]
		k := int(lag)%(len(v)-1) + 1
		c0, err := Autocovariance(v, 0)
		if err != nil {
			return false
		}
		ck, err := Autocovariance(v, k)
		if err != nil {
			return false
		}
		return math.Abs(ck) <= c0+1e-9*(1+c0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAutocovarianceNearMaxFloat pins the overflow path: finite inputs near
// MaxFloat64 overflow the plain sums, and the estimate must then be rescaled
// (finite or ±Inf), never NaN; the mean of finite values stays finite.
func TestAutocovarianceNearMaxFloat(t *testing.T) {
	const big = math.MaxFloat64
	if got := Mean([]float64{big, big, big / 2}); got != big/6*5 {
		t.Errorf("Mean near MaxFloat64 = %g, want %g", got, big/6*5)
	}
	for _, v := range [][]float64{
		{0.6 * big, -big, 0.6 * big, 0.6 * big},
		{big, -big, big, big},
		{big, -big, big, -big},
		{big, big / 2, -big, 0, big},
		{-big, -big, -big, -big / 3},
	} {
		c0, _ := Autocovariance(v, 0)
		for k := range v {
			ck, err := Autocovariance(v, k)
			if err != nil || math.IsNaN(ck) || math.Abs(ck) > c0 {
				t.Errorf("Autocovariance(%v, %d) = %g, %v (c0 %g): want non-NaN, |ck| <= c0", v, k, ck, err, c0)
			}
		}
	}
}

func TestNormalizerRoundTrip(t *testing.T) {
	f := func(raw [20]float64) bool {
		v := raw[:]
		for _, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true
			}
		}
		n := FitNormalizer(v)
		normed := n.Apply(v)
		back := n.InvertAll(normed)
		for i := range v {
			if !almostEqual(back[i], v[i], 1e-6*(1+math.Abs(v[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalizerZeroMeanUnitVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	v := make([]float64, 1000)
	for i := range v {
		v[i] = 42 + 13*rng.NormFloat64()
	}
	n := FitNormalizer(v)
	z := n.Apply(v)
	if m := Mean(z); !almostEqual(m, 0, 1e-9) {
		t.Errorf("normalized mean = %g", m)
	}
	if sd := StdDev(z); !almostEqual(sd, 1, 1e-9) {
		t.Errorf("normalized std = %g", sd)
	}
}

func TestNormalizerConstantSeries(t *testing.T) {
	n := FitNormalizer([]float64{5, 5, 5})
	z := n.Apply([]float64{5, 6})
	if z[0] != 0 || z[1] != 1 {
		t.Errorf("constant-fit normalization = %v, want [0 1]", z)
	}
}

func TestMSE(t *testing.T) {
	pred := []float64{1, 2, 3}
	obs := []float64{1, 4, 2}
	mse, err := MSE(pred, obs)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(mse, (0.0+4+1)/3, 1e-12) {
		t.Errorf("MSE = %g", mse)
	}
	if _, err := MSE([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("MSE accepted mismatched lengths")
	}
	if _, err := MSE(nil, nil); err == nil {
		t.Error("MSE accepted empty inputs")
	}
}

func TestMSENonNegativeProperty(t *testing.T) {
	f := func(a, b [8]float64) bool {
		m, err := MSE(a[:], b[:])
		return err == nil && (m >= 0 || math.IsNaN(m))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
