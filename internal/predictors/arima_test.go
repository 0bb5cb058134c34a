package predictors

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestMARecoversKnownProcess(t *testing.T) {
	// MA(1) with θ = 0.6: z_t = a_t + 0.6 a_{t-1}.
	theta := 0.6
	rng := rand.New(rand.NewSource(8))
	const n = 200000
	v := make([]float64, n)
	prev := rng.NormFloat64()
	for i := 0; i < n; i++ {
		a := rng.NormFloat64()
		v[i] = a + theta*prev
		prev = a
	}
	m := NewMA(1)
	if err := m.Fit(v); err != nil {
		t.Fatal(err)
	}
	if m.fallback {
		t.Fatal("MA fell back on healthy data")
	}
	if coef := m.theta; math.Abs(coef[0]-theta) > 0.03 {
		t.Errorf("theta = %v, want ~%g", coef, theta)
	}
}

func TestMABeatsMeanOnMAProcess(t *testing.T) {
	// On a true MA(1) process the fitted MA expert must predict better
	// than the unconditional mean.
	theta := 0.8
	rng := rand.New(rand.NewSource(9))
	const n = 5000
	v := make([]float64, n)
	prev := rng.NormFloat64()
	for i := 0; i < n; i++ {
		a := rng.NormFloat64()
		v[i] = a + theta*prev
		prev = a
	}
	m := NewMA(1)
	if err := m.Fit(v[:n/2]); err != nil {
		t.Fatal(err)
	}
	var maSq, meanSq float64
	cnt := 0
	for i := n / 2; i+8 < n; i++ {
		pred, err := m.Predict(v[i : i+8])
		if err != nil {
			t.Fatal(err)
		}
		target := v[i+8]
		maSq += (pred - target) * (pred - target)
		meanSq += target * target // process mean is 0
		cnt++
	}
	if maSq >= meanSq {
		t.Errorf("MA MSE %.4f not below mean-prediction MSE %.4f", maSq/float64(cnt), meanSq/float64(cnt))
	}
}

func TestMAUnfittedAndShortWindow(t *testing.T) {
	m := NewMA(2)
	if _, err := m.Predict(make([]float64, 5)); !errors.Is(err, ErrNotFitted) {
		t.Error("unfitted MA did not error")
	}
	if err := m.Fit(make([]float64, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Predict(make([]float64, 2)); !errors.Is(err, ErrWindowTooShort) {
		t.Error("short window accepted")
	}
}

func TestMAFallbackOnDegenerateData(t *testing.T) {
	cases := [][]float64{
		{},
		{1, 2, 3},                            // too short
		{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5}, // constant
	}
	for i, train := range cases {
		m := NewMA(2)
		if err := m.Fit(train); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !m.fallback {
			t.Errorf("case %d: expected fallback", i)
		}
		got, err := m.Predict([]float64{1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		if got != 3 {
			t.Errorf("case %d: fallback = %g, want LAST", i, got)
		}
	}
}

func TestMAPanicsOnBadOrder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMA(0) did not panic")
		}
	}()
	NewMA(0)
}

func TestARIMAExactOnLinearTrend(t *testing.T) {
	// A pure linear trend differences to a constant; ARIMA(p,1,0) should
	// forecast the trend almost exactly while a stationary AR is biased.
	v := make([]float64, 200)
	for i := range v {
		v[i] = 3*float64(i) + 10
	}
	a := NewARIMA(2, 1)
	if err := a.Fit(v[:150]); err != nil {
		t.Fatal(err)
	}
	got, err := a.Predict(v[150:160])
	if err != nil {
		t.Fatal(err)
	}
	want := 3*160.0 + 10
	if math.Abs(got-want) > 0.5 {
		t.Errorf("ARIMA trend forecast = %g, want ~%g", got, want)
	}
}

func TestARIMARandomWalkTracksLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	v := make([]float64, 2000)
	for i := 1; i < len(v); i++ {
		v[i] = v[i-1] + rng.NormFloat64()
	}
	a := NewARIMA(3, 1)
	if err := a.Fit(v[:1000]); err != nil {
		t.Fatal(err)
	}
	// Forecast must stay near the last observed value (random-walk optimum).
	got, err := a.Predict(v[1000:1010])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-v[1009]) > 3 {
		t.Errorf("ARIMA random-walk forecast %g too far from last value %g", got, v[1009])
	}
}

func TestARIMAOrderAndErrors(t *testing.T) {
	a := NewARIMA(3, 2)
	if a.Order() != 5 {
		t.Errorf("Order = %d, want p+d = 5", a.Order())
	}
	if a.d != 2 {
		t.Errorf("differencing order = %d, want 2", a.d)
	}
	if _, err := a.Predict(make([]float64, 5)); !errors.Is(err, ErrNotFitted) {
		t.Error("unfitted ARIMA did not error")
	}
	if err := a.Fit(make([]float64, 50)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Predict(make([]float64, 4)); !errors.Is(err, ErrWindowTooShort) {
		t.Error("short window accepted")
	}
}

func TestARIMAPanicsOnBadDifferencing(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewARIMA(1,0) did not panic")
		}
	}()
	NewARIMA(1, 0)
}

func TestDifference(t *testing.T) {
	d := difference([]float64{1, 4, 9, 16})
	want := []float64{3, 5, 7}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("difference = %v", d)
		}
	}
	if difference([]float64{1}) != nil {
		t.Error("single-element difference should be nil")
	}
}
