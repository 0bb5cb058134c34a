package predictors

import (
	"errors"
	"fmt"
)

// ErrBadTier is returned by BuildPool for an unknown tier or a window size
// the tier's experts cannot support.
var ErrBadTier = errors.New("predictors: bad pool tier")

// PoolTier selects one of the canonical expert rosters for BuildPool. The
// tiers nest: each one extends the previous, preserving pool order (and
// therefore the classifier's class labels) across tiers.
type PoolTier int

const (
	// TierPaper is the paper's three-expert pool {LAST, AR(m), SW_AVG(m)}.
	TierPaper PoolTier = iota
	// TierExtended adds the related-work models used by the pool-size
	// ablation: running average, sliding-window median, exponential
	// smoothing, the tendency model, and polynomial extrapolation.
	TierExtended
	// TierFull adds the MA and ARIMA models from Dinda's host-load study,
	// completing the paper's §8 future-work roster. Requires windowSize >= 3.
	TierFull
)

// String names the tier for errors and logs.
func (t PoolTier) String() string {
	switch t {
	case TierPaper:
		return "paper"
	case TierExtended:
		return "extended"
	case TierFull:
		return "full"
	default:
		return fmt.Sprintf("PoolTier(%d)", int(t))
	}
}

// BuildPool is the single constructor behind the canonical pools: it builds
// the tier's roster for windowSize and appends any extra experts (their
// class labels follow the tier's, in argument order).
func BuildPool(windowSize int, tier PoolTier, extra ...Predictor) (*Pool, error) {
	switch tier {
	case TierPaper:
		if windowSize < 1 {
			return nil, fmt.Errorf("predictors: window size %d < 1: %w", windowSize, ErrBadTier)
		}
	case TierExtended, TierFull:
		// POLY_FIT(degree 2) needs windows above its degree; MA(m-1) and
		// ARIMA(m-1, 1) need at least two lags. Both floors are 3.
		if windowSize < 3 {
			return nil, fmt.Errorf("predictors: %v tier needs window size >= 3, got %d: %w",
				tier, windowSize, ErrBadTier)
		}
	default:
		return nil, fmt.Errorf("predictors: %v: %w", tier, ErrBadTier)
	}
	preds := []Predictor{
		NewLast(),
		NewAR(windowSize),
		NewSWAvg(windowSize),
	}
	if tier >= TierExtended {
		preds = append(preds,
			NewRunAvg(),
			NewSWMedian(windowSize),
			NewExpSmooth(0.5),
			NewTendency(0.5),
			NewPolyFit(2, windowSize),
		)
	}
	if tier >= TierFull {
		preds = append(preds,
			NewMA(windowSize-1),
			NewARIMA(windowSize-1, 1),
		)
	}
	return NewPool(append(preds, extra...)...), nil
}
