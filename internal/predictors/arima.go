package predictors

import (
	"fmt"
)

// ARIMA is an integrated autoregressive model ARIMA(p, d, 0): the series is
// differenced d times, an AR(p) is fitted to the differences via Yule–Walker,
// and forecasts are integrated back. Dinda's host-load study (paper §2)
// evaluated ARIMA alongside AR; d = 1 handles the level-wandering traces
// where a stationary AR's mean-reversion bias hurts.
type ARIMA struct {
	d  int
	ar *AR

	fitted bool
}

// NewARIMA returns an unfitted ARIMA(p, d, 0). It panics if p < 1 or d < 1
// (for d = 0 use AR directly).
func NewARIMA(p, d int) *ARIMA {
	if d < 1 {
		panic(fmt.Sprintf("predictors: ARIMA differencing order %d < 1", d))
	}
	return &ARIMA{d: d, ar: NewAR(p)}
}

// Name implements Predictor.
func (*ARIMA) Name() string { return "ARIMA" }

// Order implements Predictor: differencing d times consumes d samples
// before the AR window.
func (a *ARIMA) Order() int { return a.ar.Order() + a.d }

// Fit differences the training series d times and fits the inner AR.
func (a *ARIMA) Fit(train []float64) error {
	diffed := train
	for i := 0; i < a.d; i++ {
		diffed = difference(diffed)
	}
	if err := a.ar.Fit(diffed); err != nil {
		return err
	}
	a.fitted = true
	return nil
}

// Predict implements Predictor: forecast the next difference, then integrate
// it back onto the window's trailing values.
func (a *ARIMA) Predict(window []float64) (float64, error) {
	if !a.fitted {
		return 0, fmt.Errorf("ARIMA: %w", ErrNotFitted)
	}
	if err := checkWindow(a.Name(), window, a.Order()); err != nil {
		return 0, err
	}
	// Difference the window d times, remembering the last value at each
	// level for re-integration.
	cur := window
	lasts := make([]float64, a.d)
	for i := 0; i < a.d; i++ {
		lasts[i] = cur[len(cur)-1]
		cur = difference(cur)
	}
	dPred, err := a.ar.Predict(cur)
	if err != nil {
		return 0, fmt.Errorf("ARIMA inner AR: %w", err)
	}
	// Integrate: each level adds back its last observed value.
	pred := dPred
	for i := a.d - 1; i >= 0; i-- {
		pred += lasts[i]
	}
	return pred, nil
}

// difference returns the first differences of v (length len(v)-1).
func difference(v []float64) []float64 {
	if len(v) < 2 {
		return nil
	}
	out := make([]float64, len(v)-1)
	for i := 1; i < len(v); i++ {
		out[i-1] = v[i] - v[i-1]
	}
	return out
}
