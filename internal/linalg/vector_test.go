package linalg

import (
	"math"
	"testing"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestDot(t *testing.T) {
	cases := []struct {
		a, b []float64
		want float64
	}{
		{[]float64{}, []float64{}, 0},
		{[]float64{1}, []float64{2}, 2},
		{[]float64{1, 2, 3}, []float64{4, 5, 6}, 32},
		{[]float64{-1, 0, 1}, []float64{1, 100, 1}, 0},
	}
	for _, c := range cases {
		if got := Dot(c.a, c.b); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Dot(%v,%v) = %g, want %g", c.a, c.b, got, c.want)
		}
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot with mismatched lengths did not panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNorm2(t *testing.T) {
	if got := Norm2([]float64{3, 4}); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Norm2(3,4) = %g, want 5", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Errorf("Norm2(nil) = %g, want 0", got)
	}
	// Scaling should prevent overflow for huge components.
	big := math.MaxFloat64 / 4
	got := Norm2([]float64{big, big})
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Errorf("Norm2 overflowed for large inputs: %g", got)
	}
}

func TestAllFinite(t *testing.T) {
	if !AllFinite([]float64{0, -1, 1e300}) {
		t.Error("AllFinite rejected finite slice")
	}
	if AllFinite([]float64{0, math.NaN()}) {
		t.Error("AllFinite accepted NaN")
	}
	if AllFinite([]float64{math.Inf(1)}) {
		t.Error("AllFinite accepted +Inf")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := []float64{1, 2, 3}
	c := Clone(a)
	c[0] = 99
	if a[0] != 1 {
		t.Error("Clone shares storage with input")
	}
}
