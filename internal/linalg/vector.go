// Package linalg provides the dense linear algebra kernels used by the
// LARPredictor reproduction: vector arithmetic, a dense matrix type,
// symmetric eigendecomposition (cyclic Jacobi), Gaussian elimination with
// partial pivoting, and a Levinson–Durbin solver for the symmetric Toeplitz
// systems arising in Yule–Walker AR fitting.
//
// Everything is implemented from scratch on float64 slices; there are no
// external dependencies. The matrix type is row-major and small-matrix
// oriented — the workloads in this repository are covariance matrices of
// prediction windows (tens of columns), so cache-blocked or SIMD kernels are
// deliberately out of scope.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimension is returned when operands have incompatible shapes.
var ErrDimension = errors.New("linalg: dimension mismatch")

// Dot returns the inner product of a and b.
// It panics if the lengths differ, mirroring the behaviour of slice indexing.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d != %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v, computed with scaling to avoid
// premature overflow/underflow for extreme magnitudes.
func Norm2(v []float64) float64 {
	var scale, ssq float64
	ssq = 1
	for _, x := range v {
		if x == 0 {
			continue
		}
		ax := math.Abs(x)
		if scale < ax {
			r := scale / ax
			ssq = 1 + ssq*r*r
			scale = ax
		} else {
			r := ax / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// Clone returns a copy of v.
func Clone(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// AllFinite reports whether every element of v is finite (no NaN or Inf).
func AllFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
