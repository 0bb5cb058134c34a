package predictors

import (
	"fmt"
	"math"

	"github.com/acis-lab/larpredictor/internal/linalg"
	"github.com/acis-lab/larpredictor/internal/timeseries"
)

// AR is a p-th order autoregressive model (paper Eq. 4) fitted with the
// Yule–Walker equations ("Yule-Walker technique is used in the AR model
// fitting in this work", §4), solved by Levinson–Durbin recursion.
//
// The one-step-ahead prediction from a trailing window is
//
//	ẑ_t = μ + Σ_{i=1..p} φ_i (z_{t-i} - μ)
//
// where μ is the training-series mean. For the normalized series the
// LARPredictor feeds it, μ ≈ 0 and this reduces to the paper's form.
type AR struct {
	p int

	fitted   bool
	fallback bool // degenerate training data: behave like LAST
	mean     float64
	phi      []float64 // phi[0] multiplies z_{t-1}
}

// NewAR returns an unfitted AR(p) model. It panics if p < 1.
func NewAR(p int) *AR {
	if p < 1 {
		panic(fmt.Sprintf("predictors: AR order %d < 1", p))
	}
	return &AR{p: p}
}

// Name implements Predictor.
func (*AR) Name() string { return "AR" }

// Order implements Predictor.
func (a *AR) Order() int { return a.p }

// Fit estimates the AR coefficients from the training series via
// Yule–Walker. Degenerate inputs — series shorter than p+2 samples, constant
// series, or numerically singular autocovariances — switch the model into a
// LAST-equivalent fallback rather than failing: the LARPredictor must keep
// running when one expert cannot be fit on a pathological trace, and
// last-value prediction is the conventional fallback.
func (a *AR) Fit(train []float64) error {
	a.fitted = true
	a.fallback = true
	a.phi = nil
	a.mean = timeseries.Mean(train)

	if len(train) < a.p+2 {
		return nil
	}
	r, err := timeseries.AutocovarianceSeq(train, a.p)
	if err != nil {
		return nil
	}
	if r[0] <= 0 || !linalg.AllFinite(r) {
		return nil
	}
	phi, _, err := linalg.LevinsonDurbin(r)
	if err != nil {
		return nil
	}
	// A wildly non-stationary fit (|phi| huge) would explode predictions;
	// keep the fallback in that case.
	for _, c := range phi {
		if math.Abs(c) > 1e6 {
			return nil
		}
	}
	a.phi = phi
	a.fallback = false
	return nil
}

// Predict implements Predictor.
func (a *AR) Predict(window []float64) (float64, error) {
	if !a.fitted {
		return 0, fmt.Errorf("AR(%d): %w", a.p, ErrNotFitted)
	}
	if err := checkWindow(a.Name(), window, a.p); err != nil {
		return 0, err
	}
	if a.fallback {
		return window[len(window)-1], nil
	}
	var s float64
	n := len(window)
	for i, c := range a.phi {
		// phi[i] multiplies z_{t-1-i}.
		s += c * (window[n-1-i] - a.mean)
	}
	return a.mean + s, nil
}
