package main

import (
	"math"
	"testing"
)

// The spreads -repeat prints must match the ones a calibration computes
// with Python's statistics.quantiles(values, n=4).
func TestIQRMatchesPythonQuantiles(t *testing.T) {
	for _, tc := range []struct {
		v    []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1},
		{[]float64{3, 1, 2}, 1},
		{[]float64{5, 1}, 2},
		{[]float64{0.9, 1.1, 1.0, 1.3, 0.7, 1.05, 0.95}, 0.2},
	} {
		if got := iqr(tc.v); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("iqr(%v) = %v, want %v", tc.v, got, tc.want)
		}
	}
}
