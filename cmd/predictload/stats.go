package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of v by linear interpolation
// between closest ranks; v is sorted in place. Empty input gives 0.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(pos)
	if lo+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[lo] + (pos-float64(lo))*(v[lo+1]-v[lo])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// ms converts durations to float milliseconds.
func ms(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = msOf(x)
	}
	return out
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// iqr is the interquartile range over the median, with the quartiles
// Python's statistics.quantiles(v, n=4) gives (the exclusive method).
func iqr(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		h := p * float64(len(s)+1)
		j := min(max(int(h), 1), len(s)-1)
		return s[j-1] + (h-float64(j))*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(0.75) - q(0.25)) / m
}

// spread is (max-min)/median, the calibration figure -repeat reports.
func spread(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := median(s)
	if m == 0 {
		return 0
	}
	return (s[len(s)-1] - s[0]) / m
}
