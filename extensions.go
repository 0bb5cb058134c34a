package larpredictor

import (
	"github.com/acis-lab/larpredictor/internal/knn"
	"github.com/acis-lab/larpredictor/internal/multiresource"
	"github.com/acis-lab/larpredictor/internal/timeseries"
)

// Vote strategies for the k-NN classifier (Config.Vote). The paper uses
// majority voting; the alternatives implement the combination strategies its
// related work surveys.
type VoteStrategy = knn.VoteStrategy

// Vote strategy values.
const (
	// MajorityVote is the paper's rule: one vote per neighbor.
	MajorityVote = knn.MajorityVote
	// DistanceWeightedVote weighs neighbors by inverse distance.
	DistanceWeightedVote = knn.DistanceWeightedVote
	// ProbabilityVote picks the argmax of the normalized weight
	// distribution.
	ProbabilityVote = knn.ProbabilityVote
)

// MultiResourceModel predicts one resource using both its own history and a
// correlated auxiliary resource (e.g. CPU from CPU + free memory), the
// multi-resource scheme of Liang et al. that the paper's related work
// describes.
type MultiResourceModel = multiresource.Model

// NewMultiResource returns an unfitted two-series predictor with p target
// lags and q auxiliary lags. Fit with aligned series, then Predict from
// trailing histories of both.
func NewMultiResource(p, q int) *MultiResourceModel {
	return multiresource.New(p, q)
}

// CrossCorrelation returns the lag-k cross-correlation corr(z_t, x_{t-k})
// between two aligned series — the diagnostic that decides whether a
// multi-resource model is worth fitting.
func CrossCorrelation(z, x []float64, k int) (float64, error) {
	return multiresource.CrossCorrelation(z, x, k)
}

// ACF returns the autocorrelation function of v for lags 0..maxLag.
func ACF(v []float64, maxLag int) ([]float64, error) {
	return timeseries.ACF(v, maxLag)
}

// PACF returns the partial autocorrelation function of v for lags
// 1..maxLag — the standard order-selection diagnostic for the AR expert.
func PACF(v []float64, maxLag int) ([]float64, error) {
	return timeseries.PACF(v, maxLag)
}

// LjungBox tests whether v carries autocorrelation worth modeling (the
// precondition for history-based prediction): it returns the portmanteau
// statistic over the given lags and whether white noise is rejected at the
// 5% level.
func LjungBox(v []float64, lags int) (q float64, autocorrelated bool, err error) {
	return timeseries.LjungBox(v, lags)
}
