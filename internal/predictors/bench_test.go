package predictors

import (
	"math/rand"
	"testing"
)

func benchSeries(n int) []float64 {
	rng := rand.New(rand.NewSource(1))
	v := make([]float64, n)
	for i := 1; i < n; i++ {
		v[i] = 0.7*v[i-1] + rng.NormFloat64()
	}
	return v
}

func BenchmarkARFit(b *testing.B) {
	train := benchSeries(288)
	for i := 0; i < b.N; i++ {
		ar := NewAR(16)
		if err := ar.Fit(train); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMAFit(b *testing.B) {
	train := benchSeries(288)
	for i := 0; i < b.N; i++ {
		m := NewMA(4)
		if err := m.Fit(train); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPoolPredictAll(b *testing.B) {
	train := benchSeries(288)
	window := train[100:105]
	for _, tc := range []struct {
		name string
		pool *Pool
	}{
		{"paper3", buildPool(b, 5, TierPaper)},
		{"extended8", buildPool(b, 5, TierExtended)},
		{"full10", buildPool(b, 5, TierFull)},
	} {
		if err := tc.pool.Fit(train); err != nil {
			b.Fatal(err)
		}
		w := window
		if tc.pool.MaxOrder() > len(w) {
			w = train[100 : 100+tc.pool.MaxOrder()]
		}
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tc.pool.PredictAll(w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLabelParallel(b *testing.B) {
	train := benchSeries(288)
	pool := buildPool(b, 5, TierPaper)
	if err := pool.Fit(train); err != nil {
		b.Fatal(err)
	}
	var windows [][]float64
	var targets []float64
	for i := 0; i+5 < len(train); i++ {
		windows = append(windows, train[i:i+5])
		targets = append(targets, train[i+5])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pool.LabelParallel(windows, targets); err != nil {
			b.Fatal(err)
		}
	}
}
