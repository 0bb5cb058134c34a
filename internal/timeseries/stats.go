package timeseries

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean of v (0 for an empty slice).
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	m := s / float64(len(v))
	if math.IsInf(m, 0) {
		// The running sum overflowed, yet the mean of finite values always
		// fits: sum v/max|v| instead.
		if a := maxAbs(v); !math.IsInf(a, 0) && !math.IsNaN(a) {
			return scaledMean(v, a) * a
		}
	}
	return m
}

// scaledMean returns the mean of v/a.
func scaledMean(v []float64, a float64) float64 {
	var s float64
	for _, x := range v {
		s += x / a
	}
	return s / float64(len(v))
}

// maxAbs returns max |v[i]|, or NaN when v holds a NaN.
func maxAbs(v []float64) float64 {
	var a float64
	for _, x := range v {
		if math.IsNaN(x) {
			return x
		}
		a = math.Max(a, math.Abs(x))
	}
	return a
}

// Variance returns the population variance of v (divisor n), matching the
// convention used for z-score normalization. Returns 0 for fewer than two
// samples.
func Variance(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	m := Mean(v)
	var s float64
	for _, x := range v {
		d := x - m
		s += d * d
	}
	return s / float64(len(v))
}

// StdDev returns the population standard deviation of v.
func StdDev(v []float64) float64 {
	return math.Sqrt(Variance(v))
}

// Autocovariance returns the lag-k autocovariance estimate
//
//	c_k = 1/n Σ_{t=0}^{n-k-1} (x_t - mean)(x_{t+k} - mean)
//
// using the standard biased (1/n) estimator, which guarantees that the
// resulting autocovariance sequence is positive semi-definite — a property
// Levinson–Durbin relies on.
func Autocovariance(v []float64, k int) (float64, error) {
	n := len(v)
	if k < 0 {
		return 0, fmt.Errorf("timeseries: negative lag %d", k)
	}
	if k >= n {
		return 0, fmt.Errorf("timeseries: lag %d >= series length %d: %w", k, n, ErrShort)
	}
	m := Mean(v)
	var s float64
	for t := 0; t+k < n; t++ {
		s += (v[t] - m) * (v[t+k] - m)
	}
	c := s / float64(n)
	if math.IsInf(c, 0) || math.IsNaN(c) {
		c = rescaledAutocovariance(v, k, c)
	}
	return c, nil
}

// rescaledAutocovariance recomputes a non-finite lag-k autocovariance c of
// finite inputs on v/max|v|: near MaxFloat64 the deviations or their
// products overflow, and Inf − Inf sums to NaN. The scaled estimate is
// finite and scales back by max|v|², overflowing to ±Inf at worst; a zero
// stays 0 rather than 0·Inf = NaN. Inputs holding Inf or NaN keep c.
func rescaledAutocovariance(v []float64, k int, c float64) float64 {
	a := maxAbs(v)
	if math.IsInf(a, 0) || math.IsNaN(a) {
		return c
	}
	m := scaledMean(v, a)
	var s float64
	for t := 0; t+k < len(v); t++ {
		s += (v[t]/a - m) * (v[t+k]/a - m)
	}
	if s == 0 {
		return 0
	}
	return s / float64(len(v)) * a * a
}

// AutocovarianceSeq returns autocovariances for lags 0..maxLag.
func AutocovarianceSeq(v []float64, maxLag int) ([]float64, error) {
	out := make([]float64, maxLag+1)
	for k := 0; k <= maxLag; k++ {
		c, err := Autocovariance(v, k)
		if err != nil {
			return nil, err
		}
		out[k] = c
	}
	return out, nil
}

// Autocorrelation returns the lag-k autocorrelation c_k / c_0. For a
// zero-variance series it returns 0 for k > 0 and 1 for k == 0. An
// out-of-range lag errors regardless of the series' variance, matching
// Autocovariance.
func Autocorrelation(v []float64, k int) (float64, error) {
	if k < 0 {
		return 0, fmt.Errorf("timeseries: negative lag %d", k)
	}
	if k >= len(v) {
		return 0, fmt.Errorf("timeseries: lag %d >= series length %d: %w", k, len(v), ErrShort)
	}
	c0, err := Autocovariance(v, 0)
	if err != nil {
		return 0, err
	}
	if k == 0 {
		return 1, nil
	}
	if c0 == 0 {
		return 0, nil
	}
	ck, err := Autocovariance(v, k)
	if err != nil {
		return 0, err
	}
	return ck / c0, nil
}

// Normalizer performs z-score normalization: it maps a series to zero mean
// and unit variance using coefficients fitted on training data. The paper's
// testing phase reuses training-phase coefficients ("the testing data are
// normalized using the normalization coefficient derived from the training
// phase"), which is why fit and apply are separate steps.
type Normalizer struct {
	Mean float64
	Std  float64
}

// FitNormalizer estimates normalization coefficients from v. A constant
// series (zero variance) yields Std = 1 so that Apply is the identity shift;
// this matches the degenerate-trace handling in the experiment drivers.
func FitNormalizer(v []float64) Normalizer {
	std := StdDev(v)
	if std == 0 {
		std = 1
	}
	return Normalizer{Mean: Mean(v), Std: std}
}

// Apply returns a normalized copy of v.
func (n Normalizer) Apply(v []float64) []float64 {
	out := make([]float64, len(v))
	inv := 1 / n.Std
	for i, x := range v {
		out[i] = (x - n.Mean) * inv
	}
	return out
}

// ApplyInto normalizes v into dst, reusing dst's backing array when its
// capacity suffices, and returns the slice holding the result. It is the
// allocation-free variant of Apply for steady-state hot paths; dst may be
// nil (the first call then allocates a right-sized buffer to reuse).
func (n Normalizer) ApplyInto(dst, v []float64) []float64 {
	if cap(dst) < len(v) {
		dst = make([]float64, len(v))
	}
	dst = dst[:len(v)]
	inv := 1 / n.Std
	for i, x := range v {
		dst[i] = (x - n.Mean) * inv
	}
	return dst
}

// ApplyValue normalizes a single value.
func (n Normalizer) ApplyValue(x float64) float64 {
	return (x - n.Mean) / n.Std
}

// Invert maps a normalized value back to the original scale.
func (n Normalizer) Invert(x float64) float64 {
	return x*n.Std + n.Mean
}

// InvertAll maps a normalized slice back to the original scale.
func (n Normalizer) InvertAll(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = n.Invert(x)
	}
	return out
}

// MSE returns the mean squared error between predictions and observations,
// the paper's headline accuracy measure (Equation 5).
func MSE(pred, obs []float64) (float64, error) {
	if len(pred) != len(obs) {
		return 0, fmt.Errorf("timeseries: MSE length mismatch %d != %d", len(pred), len(obs))
	}
	if len(pred) == 0 {
		return 0, ErrEmpty
	}
	var s float64
	for i := range pred {
		d := pred[i] - obs[i]
		s += d * d
	}
	return s / float64(len(pred)), nil
}
