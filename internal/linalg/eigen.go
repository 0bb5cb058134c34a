package linalg

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrNotSymmetric is returned by SymEigen when the input matrix is not
// symmetric within the solver's tolerance.
var ErrNotSymmetric = errors.New("linalg: matrix is not symmetric")

// ErrNoConvergence is returned when an iterative solver exceeds its sweep
// budget without meeting the off-diagonal tolerance.
var ErrNoConvergence = errors.New("linalg: eigensolver failed to converge")

// EigenDecomposition holds the result of a symmetric eigendecomposition.
// Values are sorted in descending order and Vectors' column i is the unit
// eigenvector for Values[i].
type EigenDecomposition struct {
	Values  []float64
	Vectors *Matrix // n×n, eigenvectors as columns
}

const (
	jacobiMaxSweeps = 100
	jacobiTol       = 1e-12
)

// SymEigen computes all eigenvalues and eigenvectors of the symmetric matrix
// a using the cyclic Jacobi rotation method. The input is not modified.
//
// Jacobi is quadratic-cost per sweep but unconditionally stable and exact for
// the small covariance matrices (window-size × window-size, typically 5–32)
// that PCA produces in this system, which is why it is chosen over a
// Householder/QL pipeline.
func SymEigen(a *Matrix) (*EigenDecomposition, error) {
	n := a.Rows()
	if n != a.Cols() {
		return nil, fmt.Errorf("linalg: SymEigen on %dx%d matrix: %w", a.Rows(), a.Cols(), ErrDimension)
	}
	if !a.IsSymmetric(1e-8 * (1 + maxAbs(a))) {
		return nil, ErrNotSymmetric
	}
	if n == 0 {
		return &EigenDecomposition{Values: nil, Vectors: NewMatrix(0, 0)}, nil
	}

	// Work on copies: s is rotated toward diagonal, v accumulates rotations.
	s := a.Clone()
	v := Identity(n)
	sd := s.data

	for sweep := 0; sweep < jacobiMaxSweeps; sweep++ {
		off := offDiagNorm(s)
		if off <= jacobiTol*(1+frobeniusNorm(s)) {
			return assembleEigen(s, v), nil
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := sd[p*n+q]
				if math.Abs(apq) <= jacobiTol*math.Sqrt(math.Abs(sd[p*n+p]*sd[q*n+q])+jacobiTol) {
					continue
				}
				rotate(s, v, p, q)
			}
		}
	}
	// One last check: tiny residual off-diagonals are acceptable.
	if offDiagNorm(s) <= 1e-8*(1+frobeniusNorm(s)) {
		return assembleEigen(s, v), nil
	}
	return nil, ErrNoConvergence
}

// rotate applies a single Jacobi rotation zeroing s[p][q], updating the
// eigenvector accumulator v. Both are n×n; the loops index their row-major
// backing slices directly.
func rotate(s, v *Matrix, p, q int) {
	n := s.rows
	sd, vd := s.data, v.data
	app := sd[p*n+p]
	aqq := sd[q*n+q]
	apq := sd[p*n+q]

	// Compute the rotation (c, s) following Golub & Van Loan 8.4.
	theta := (aqq - app) / (2 * apq)
	var t float64
	if theta >= 0 {
		t = 1 / (theta + math.Sqrt(1+theta*theta))
	} else {
		t = -1 / (-theta + math.Sqrt(1+theta*theta))
	}
	c := 1 / math.Sqrt(1+t*t)
	sn := t * c

	for k := 0; k < n; k++ {
		row := sd[k*n : k*n+n]
		skp, skq := row[p], row[q]
		row[p] = c*skp - sn*skq
		row[q] = sn*skp + c*skq
	}
	rp, rq := sd[p*n:p*n+n], sd[q*n:q*n+n]
	for k := 0; k < n; k++ {
		spk, sqk := rp[k], rq[k]
		rp[k] = c*spk - sn*sqk
		rq[k] = sn*spk + c*sqk
	}
	for k := 0; k < n; k++ {
		row := vd[k*n : k*n+n]
		vkp, vkq := row[p], row[q]
		row[p] = c*vkp - sn*vkq
		row[q] = sn*vkp + c*vkq
	}
}

// assembleEigen extracts the diagonal of s, sorts eigenpairs descending by
// eigenvalue, and fixes each eigenvector's sign so the largest-magnitude
// component is positive (deterministic output across runs).
func assembleEigen(s, v *Matrix) *EigenDecomposition {
	n := s.Rows()
	type pair struct {
		val float64
		idx int
	}
	pairs := make([]pair, n)
	for i := 0; i < n; i++ {
		pairs[i] = pair{val: s.At(i, i), idx: i}
	}
	sort.SliceStable(pairs, func(i, j int) bool { return pairs[i].val > pairs[j].val })

	values := make([]float64, n)
	vectors := NewMatrix(n, n)
	for col, p := range pairs {
		values[col] = p.val
		// Sign convention: flip so the largest-|.| component is positive.
		maxAbsVal, sign := 0.0, 1.0
		for r := 0; r < n; r++ {
			x := v.At(r, p.idx)
			if math.Abs(x) > maxAbsVal {
				maxAbsVal = math.Abs(x)
				if x < 0 {
					sign = -1
				} else {
					sign = 1
				}
			}
		}
		for r := 0; r < n; r++ {
			vectors.Set(r, col, sign*v.At(r, p.idx))
		}
	}
	return &EigenDecomposition{Values: values, Vectors: vectors}
}

func offDiagNorm(m *Matrix) float64 {
	var s float64
	n := m.rows
	for i := 0; i < n; i++ {
		for j, v := range m.data[i*n : i*n+n] {
			if i == j {
				continue
			}
			s += v * v
		}
	}
	return math.Sqrt(s)
}

func frobeniusNorm(m *Matrix) float64 {
	var s float64
	for i := 0; i < m.Rows(); i++ {
		for _, v := range m.Row(i) {
			s += v * v
		}
	}
	return math.Sqrt(s)
}

func maxAbs(m *Matrix) float64 {
	var mx float64
	for i := 0; i < m.Rows(); i++ {
		for _, v := range m.Row(i) {
			if a := math.Abs(v); a > mx {
				mx = a
			}
		}
	}
	return mx
}
