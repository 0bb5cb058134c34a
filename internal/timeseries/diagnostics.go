package timeseries

import (
	"fmt"
	"math"
)

// ACF returns the autocorrelation function for lags 0..maxLag.
func ACF(v []float64, maxLag int) ([]float64, error) {
	if maxLag < 0 {
		return nil, fmt.Errorf("timeseries: negative max lag %d", maxLag)
	}
	if maxLag >= len(v) {
		return nil, fmt.Errorf("timeseries: max lag %d >= length %d: %w", maxLag, len(v), ErrShort)
	}
	out := make([]float64, maxLag+1)
	for k := 0; k <= maxLag; k++ {
		rho, err := Autocorrelation(v, k)
		if err != nil {
			return nil, err
		}
		out[k] = rho
	}
	return out, nil
}

// PACF returns the partial autocorrelation function for lags 1..maxLag,
// computed with the Durbin–Levinson recursion. The PACF is the standard
// order-selection diagnostic for the AR expert: an AR(p) process has PACF
// that cuts off after lag p.
func PACF(v []float64, maxLag int) ([]float64, error) {
	if maxLag < 1 {
		return nil, fmt.Errorf("timeseries: PACF max lag %d < 1", maxLag)
	}
	if maxLag >= len(v) {
		return nil, fmt.Errorf("timeseries: max lag %d >= length %d: %w", maxLag, len(v), ErrShort)
	}
	rho, err := ACF(v, maxLag)
	if err != nil {
		return nil, err
	}
	if Variance(v) == 0 {
		return make([]float64, maxLag), nil
	}

	// Durbin–Levinson on autocorrelations.
	pacf := make([]float64, maxLag)
	phi := make([]float64, maxLag+1) // phi[k][j] rolled: current row
	prev := make([]float64, maxLag+1)

	pacf[0] = rho[1]
	phi[1] = rho[1]
	for k := 2; k <= maxLag; k++ {
		copy(prev, phi)
		num := rho[k]
		den := 1.0
		for j := 1; j < k; j++ {
			num -= prev[j] * rho[k-j]
			den -= prev[j] * rho[j]
		}
		if den == 0 {
			// Perfectly predictable at this order; the remaining partials
			// are zero by convention.
			for i := k - 1; i < maxLag; i++ {
				pacf[i] = 0
			}
			return pacf, nil
		}
		phikk := num / den
		pacf[k-1] = phikk
		phi[k] = phikk
		for j := 1; j < k; j++ {
			phi[j] = prev[j] - phikk*prev[k-j]
		}
	}
	return pacf, nil
}

// LjungBox computes the Ljung–Box portmanteau statistic over the first
// `lags` autocorrelations:
//
//	Q = n(n+2) Σ_{k=1..h} ρ_k² / (n−k)
//
// Under the null hypothesis of white noise, Q is χ²(h)-distributed. The
// returned boolean reports whether the null is rejected at the 5% level
// (using the χ² critical value), i.e. whether the series carries
// autocorrelation worth modeling — the precondition for history-based
// prediction that Dinda's study established for host load.
func LjungBox(v []float64, lags int) (q float64, autocorrelated bool, err error) {
	n := len(v)
	if lags < 1 {
		return 0, false, fmt.Errorf("timeseries: Ljung-Box lags %d < 1", lags)
	}
	if lags >= n {
		return 0, false, fmt.Errorf("timeseries: Ljung-Box lags %d >= length %d: %w", lags, n, ErrShort)
	}
	rho, err := ACF(v, lags)
	if err != nil {
		return 0, false, err
	}
	for k := 1; k <= lags; k++ {
		q += rho[k] * rho[k] / float64(n-k)
	}
	q *= float64(n) * float64(n+2)
	return q, q > chiSquared95(lags), nil
}

// chiSquared95 returns the 95th percentile of the χ² distribution with df
// degrees of freedom, via the Wilson–Hilferty approximation (exact to ~1e-3
// relative for df >= 1, ample for a diagnostic test).
func chiSquared95(df int) float64 {
	const z95 = 1.6448536269514722
	d := float64(df)
	t := 1 - 2/(9*d) + z95*math.Sqrt(2/(9*d))
	return d * t * t * t
}
