package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// refSymEigen, refRotate and refOffDiagNorm are the cyclic Jacobi solver as
// it was written over At/Set, kept here only as the reference the
// direct-indexing solver must match bit for bit.
func refSymEigen(a *Matrix) (*EigenDecomposition, error) {
	n := a.Rows()
	if n != a.Cols() {
		return nil, ErrDimension
	}
	if !a.IsSymmetric(1e-8 * (1 + maxAbs(a))) {
		return nil, ErrNotSymmetric
	}
	if n == 0 {
		return &EigenDecomposition{Values: nil, Vectors: NewMatrix(0, 0)}, nil
	}
	s := a.Clone()
	v := Identity(n)
	for sweep := 0; sweep < jacobiMaxSweeps; sweep++ {
		off := refOffDiagNorm(s)
		if off <= jacobiTol*(1+frobeniusNorm(s)) {
			return assembleEigen(s, v), nil
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := s.At(p, q)
				if math.Abs(apq) <= jacobiTol*math.Sqrt(math.Abs(s.At(p, p)*s.At(q, q))+jacobiTol) {
					continue
				}
				refRotate(s, v, p, q)
			}
		}
	}
	if refOffDiagNorm(s) <= 1e-8*(1+frobeniusNorm(s)) {
		return assembleEigen(s, v), nil
	}
	return nil, ErrNoConvergence
}

func refRotate(s, v *Matrix, p, q int) {
	n := s.Rows()
	app := s.At(p, p)
	aqq := s.At(q, q)
	apq := s.At(p, q)
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
		skp := s.At(k, p)
		skq := s.At(k, q)
		s.Set(k, p, c*skp-sn*skq)
		s.Set(k, q, sn*skp+c*skq)
	}
	for k := 0; k < n; k++ {
		spk := s.At(p, k)
		sqk := s.At(q, k)
		s.Set(p, k, c*spk-sn*sqk)
		s.Set(q, k, sn*spk+c*sqk)
	}
	for k := 0; k < n; k++ {
		vkp := v.At(k, p)
		vkq := v.At(k, q)
		v.Set(k, p, c*vkp-sn*vkq)
		v.Set(k, q, sn*vkp+c*vkq)
	}
}

func refOffDiagNorm(m *Matrix) float64 {
	var s float64
	n := m.Rows()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := m.At(i, j)
			s += v * v
		}
	}
	return math.Sqrt(s)
}

// TestSymEigenMatchesAtSetReference checks the direct-indexing Jacobi
// solver against the At/Set reference bit for bit: random symmetric
// matrices, sample covariances of random and overlapping windows (the PCA
// input), and degenerate spectra (diagonal, repeated, zero, rank one).
func TestSymEigenMatchesAtSetReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var cases []*Matrix
	for n := 1; n <= 16; n++ {
		for rep := 0; rep < 8; rep++ {
			cases = append(cases, randomSymmetric(rng, n))
		}
		// Covariance of overlapping windows of one AR(1) series.
		series := make([]float64, 60+n)
		for i := 1; i < len(series); i++ {
			series[i] = 0.8*series[i-1] + rng.NormFloat64()
		}
		rows := make([][]float64, 60)
		for i := range rows {
			rows[i] = series[i : i+n]
		}
		x, err := FromRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		if n > 1 {
			cov, err := x.Covariance()
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, cov)
		}
		diag := NewMatrix(n, n)
		ones := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			diag.Set(i, i, float64(i%3))
			for j := 0; j < n; j++ {
				ones.Set(i, j, 1)
			}
		}
		cases = append(cases, diag, ones, NewMatrix(n, n), Identity(n))
	}
	for ci, a := range cases {
		got, gotErr := SymEigen(a)
		want, wantErr := refSymEigen(a)
		if !errors.Is(gotErr, wantErr) || (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("case %d (%dx%d): error %v, reference %v", ci, a.Rows(), a.Cols(), gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		for i := range want.Values {
			if math.Float64bits(got.Values[i]) != math.Float64bits(want.Values[i]) {
				t.Fatalf("case %d: value %d = %v, reference %v", ci, i, got.Values[i], want.Values[i])
			}
		}
		for i, w := range want.Vectors.data {
			if math.Float64bits(got.Vectors.data[i]) != math.Float64bits(w) {
				t.Fatalf("case %d: vector element %d = %v, reference %v", ci, i, got.Vectors.data[i], w)
			}
		}
	}
}
