package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("linalg: singular matrix")

// Solve solves the square linear system a·x = b by Gaussian elimination with
// partial pivoting. Neither input is modified.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	n := a.Rows()
	if n != a.Cols() {
		return nil, fmt.Errorf("linalg: Solve on %dx%d matrix: %w", a.Rows(), a.Cols(), ErrDimension)
	}
	if len(b) != n {
		return nil, fmt.Errorf("linalg: Solve rhs length %d for %dx%d matrix: %w", len(b), n, n, ErrDimension)
	}
	// Augmented working copies.
	m := a.Clone()
	x := Clone(b)

	for col := 0; col < n; col++ {
		// Partial pivot: pick the largest |entry| in this column.
		pivot, pivotVal := col, math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.At(r, col)); v > pivotVal {
				pivot, pivotVal = r, v
			}
		}
		if pivotVal == 0 {
			return nil, ErrSingular
		}
		if pivot != col {
			swapRows(m, pivot, col)
			x[pivot], x[col] = x[col], x[pivot]
		}
		inv := 1 / m.At(col, col)
		for r := col + 1; r < n; r++ {
			factor := m.At(r, col) * inv
			if factor == 0 {
				continue
			}
			for c := col; c < n; c++ {
				m.Set(r, c, m.At(r, c)-factor*m.At(col, c))
			}
			x[r] -= factor * x[col]
		}
	}
	// Back-substitution.
	for r := n - 1; r >= 0; r-- {
		s := x[r]
		for c := r + 1; c < n; c++ {
			s -= m.At(r, c) * x[c]
		}
		x[r] = s / m.At(r, r)
	}
	if !AllFinite(x) {
		return nil, ErrSingular
	}
	return x, nil
}

func swapRows(m *Matrix, i, j int) {
	ri, rj := m.Row(i), m.Row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// LevinsonDurbin solves the symmetric Toeplitz system arising from the
// Yule–Walker equations:
//
//	R·phi = r
//
// where R is the p×p Toeplitz matrix built from autocovariances
// r[0..p-1] and the right-hand side is r[1..p]. The input slice r must hold
// p+1 autocovariances r[0..p]. It returns the AR coefficients phi[1..p]
// (as a slice of length p) and the innovation variance.
//
// The recursion is O(p²) versus O(p³) for general elimination, and is the
// standard fitting routine for AR models (paper §4, "Yule-Walker technique is
// used in the AR model fitting").
func LevinsonDurbin(r []float64) (phi []float64, variance float64, err error) {
	if len(r) < 2 {
		return nil, 0, fmt.Errorf("linalg: LevinsonDurbin needs >= 2 autocovariances, have %d: %w", len(r), ErrDimension)
	}
	p := len(r) - 1
	if r[0] <= 0 {
		return nil, 0, fmt.Errorf("linalg: LevinsonDurbin zero-lag autocovariance %g must be positive: %w", r[0], ErrSingular)
	}

	phi = make([]float64, p)
	prev := make([]float64, p)
	variance = r[0]

	for k := 1; k <= p; k++ {
		// Reflection coefficient.
		acc := r[k]
		for j := 1; j < k; j++ {
			acc -= prev[j-1] * r[k-j]
		}
		if variance == 0 {
			return nil, 0, ErrSingular
		}
		kappa := acc / variance
		// Update coefficients.
		phi[k-1] = kappa
		for j := 1; j < k; j++ {
			phi[j-1] = prev[j-1] - kappa*prev[k-j-1]
		}
		variance *= 1 - kappa*kappa
		if variance < 0 {
			// Numerically the process is not stationary enough; clamp.
			variance = 0
		}
		copy(prev, phi[:k])
	}
	if !AllFinite(phi) {
		return nil, 0, ErrSingular
	}
	return phi, variance, nil
}
