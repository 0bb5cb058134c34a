package timeseries

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestACF(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := make([]float64, 100000)
	for i := 1; i < len(v); i++ {
		v[i] = 0.7*v[i-1] + rng.NormFloat64()
	}
	acf, err := ACF(v, 3)
	if err != nil {
		t.Fatal(err)
	}
	if acf[0] != 1 {
		t.Errorf("acf[0] = %g", acf[0])
	}
	// AR(1): rho_k = phi^k.
	for k, want := range []float64{1, 0.7, 0.49, 0.343} {
		if math.Abs(acf[k]-want) > 0.02 {
			t.Errorf("acf[%d] = %g, want ~%g", k, acf[k], want)
		}
	}
	if _, err := ACF(v, -1); err == nil {
		t.Error("negative lag accepted")
	}
	if _, err := ACF([]float64{1, 2}, 5); !errors.Is(err, ErrShort) {
		t.Error("excess lag accepted")
	}
}

func TestPACFCutsOffForARProcess(t *testing.T) {
	// AR(2): PACF significant at lags 1-2, near zero beyond.
	rng := rand.New(rand.NewSource(2))
	v := make([]float64, 200000)
	for i := 2; i < len(v); i++ {
		v[i] = 0.5*v[i-1] + 0.3*v[i-2] + rng.NormFloat64()
	}
	pacf, err := PACF(v, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pacf[1]-0.3) > 0.02 {
		t.Errorf("pacf[2] = %g, want ~0.3", pacf[1])
	}
	for k := 2; k < 5; k++ {
		if math.Abs(pacf[k]) > 0.02 {
			t.Errorf("pacf[%d] = %g, want ~0 beyond the AR order", k+1, pacf[k])
		}
	}
}

func TestPACFLag1IsACF1(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	v := make([]float64, 5000)
	for i := 1; i < len(v); i++ {
		v[i] = 0.4*v[i-1] + rng.NormFloat64()
	}
	acf, err := ACF(v, 1)
	if err != nil {
		t.Fatal(err)
	}
	pacf, err := PACF(v, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pacf[0]-acf[1]) > 1e-12 {
		t.Errorf("pacf[1] = %g != acf[1] = %g", pacf[0], acf[1])
	}
}

func TestPACFConstantSeries(t *testing.T) {
	pacf, err := PACF([]float64{5, 5, 5, 5, 5, 5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pacf {
		if p != 0 {
			t.Errorf("constant-series PACF = %v", pacf)
		}
	}
	if _, err := PACF([]float64{1, 2, 3}, 0); err == nil {
		t.Error("lag 0 accepted")
	}
}

func TestLjungBoxDistinguishesNoiseFromAR(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	noise := make([]float64, 2000)
	ar := make([]float64, 2000)
	for i := range noise {
		noise[i] = rng.NormFloat64()
		if i > 0 {
			ar[i] = 0.6*ar[i-1] + rng.NormFloat64()
		}
	}
	_, sig, err := LjungBox(noise, 10)
	if err != nil {
		t.Fatal(err)
	}
	if sig {
		t.Error("white noise flagged as autocorrelated")
	}
	q, sig, err := LjungBox(ar, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !sig {
		t.Errorf("AR process not flagged (Q=%g)", q)
	}
	if _, _, err := LjungBox(noise, 0); err == nil {
		t.Error("lags 0 accepted")
	}
	if _, _, err := LjungBox([]float64{1, 2}, 5); !errors.Is(err, ErrShort) {
		t.Error("excess lags accepted")
	}
}

func TestChiSquared95(t *testing.T) {
	// Known values: χ²₀.₉₅(1) ≈ 3.841, (10) ≈ 18.307, (30) ≈ 43.773.
	cases := map[int]float64{1: 3.841, 10: 18.307, 30: 43.773}
	for df, want := range cases {
		if got := chiSquared95(df); math.Abs(got-want) > 0.15 {
			t.Errorf("chi2_95(%d) = %g, want ~%g", df, got, want)
		}
	}
}
