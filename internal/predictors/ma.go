package predictors

import (
	"fmt"
	"math"

	"github.com/acis-lab/larpredictor/internal/timeseries"
)

// MA is a q-th order moving-average model,
//
//	Z_t = μ + a_t + θ_1 a_{t-1} + ... + θ_q a_{t-q},
//
// one of the Dinda-study models the paper's §8 proposes folding into the
// pool. The coefficients are fitted with the innovations algorithm (Brockwell
// & Davis §5.3), which needs only the sample autocovariances; prediction
// reconstructs the recent innovation sequence by filtering the window.
type MA struct {
	q int

	fitted   bool
	fallback bool // degenerate training data: behave like MEAN/LAST
	mean     float64
	theta    []float64 // theta[0] multiplies a_{t-1}
}

// NewMA returns an unfitted MA(q) model. It panics if q < 1.
func NewMA(q int) *MA {
	if q < 1 {
		panic(fmt.Sprintf("predictors: MA order %d < 1", q))
	}
	return &MA{q: q}
}

// Name implements Predictor.
func (*MA) Name() string { return "MA" }

// Order implements Predictor: reconstructing innovations needs a few extra
// samples beyond q to wash out the unknown initial innovation.
func (m *MA) Order() int { return m.q + 1 }

// Fit estimates θ via the innovations algorithm on the training series'
// sample autocovariances. Degenerate inputs switch to a last-value fallback,
// mirroring the AR expert's behaviour.
func (m *MA) Fit(train []float64) error {
	m.fitted = true
	m.fallback = true
	m.theta = nil
	m.mean = timeseries.Mean(train)

	if len(train) < 2*m.q+4 {
		return nil
	}
	// The innovations algorithm needs autocovariances up to lag q; run it
	// for a few extra iterations so the θ estimates settle.
	iters := 4 * m.q
	if iters > len(train)/2 {
		iters = len(train) / 2
	}
	if iters <= m.q {
		return nil
	}
	r, err := timeseries.AutocovarianceSeq(train, iters)
	if err != nil || r[0] <= 0 {
		return nil
	}
	for _, x := range r {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil
		}
	}

	// Innovations algorithm: v[0] = r[0];
	// θ_{n,n-k} = (r[n-k] − Σ_{j=0}^{k-1} θ_{k,k-j} θ_{n,n-j} v[j]) / v[k]
	theta := make([][]float64, iters+1) // theta[n][j] = θ_{n,j}, j=1..n
	v := make([]float64, iters+1)
	v[0] = r[0]
	for n := 1; n <= iters; n++ {
		theta[n] = make([]float64, n+1)
		for k := 0; k < n; k++ {
			sum := r[n-k]
			for j := 0; j < k; j++ {
				sum -= theta[k][k-j] * theta[n][n-j] * v[j]
			}
			if v[k] == 0 {
				return nil
			}
			theta[n][n-k] = sum / v[k]
		}
		v[n] = r[0]
		for j := 0; j < n; j++ {
			v[n] -= theta[n][n-j] * theta[n][n-j] * v[j]
		}
		if v[n] <= 0 {
			return nil
		}
	}
	// θ_{iters,1..q} approximates the MA(q) coefficients.
	out := make([]float64, m.q)
	for j := 1; j <= m.q; j++ {
		c := theta[iters][j]
		if math.Abs(c) > 10 {
			return nil // wildly non-invertible fit
		}
		out[j-1] = c
	}
	m.theta = out
	m.fallback = false
	return nil
}

// Predict implements Predictor: it reconstructs innovations over the window
// by inverting the MA filter (assuming zero innovations before the window),
// then forecasts μ + Σ θ_i a_{t-i}.
func (m *MA) Predict(window []float64) (float64, error) {
	if !m.fitted {
		return 0, fmt.Errorf("MA(%d): %w", m.q, ErrNotFitted)
	}
	if err := checkWindow(m.Name(), window, m.Order()); err != nil {
		return 0, err
	}
	if m.fallback {
		return window[len(window)-1], nil
	}
	// a_t = (z_t − μ) − Σ θ_i a_{t-i}
	a := make([]float64, len(window))
	for t, z := range window {
		acc := z - m.mean
		for i, c := range m.theta {
			if t-1-i >= 0 {
				acc -= c * a[t-1-i]
			}
		}
		// Non-invertible filters can blow up the recursion; clamp to keep
		// the forecast finite (the expert will simply score poorly).
		if math.Abs(acc) > 1e12 {
			return window[len(window)-1], nil
		}
		a[t] = acc
	}
	var s float64
	n := len(a)
	for i, c := range m.theta {
		if n-1-i >= 0 {
			s += c * a[n-1-i]
		}
	}
	return m.mean + s, nil
}
