// Package predictors implements the time-series prediction models that form
// the LARPredictor's mix-of-experts pool (paper §4): LAST, sliding-window
// average (SW_AVG), and the Yule–Walker-fitted autoregressive model (AR).
//
// It also provides the extended pool the paper's related-work and future-work
// sections point at — running mean, sliding-window median, adaptive-window
// mean/median, exponential smoothing (all from the Network Weather Service
// forecaster suite), the tendency-based model of Yang et al., and the
// polynomial-fitting model of Zhang et al. — so that the "more predictors in
// the pool" amortization argument of §7.3 can be benchmarked.
//
// All predictors perform one-step-ahead prediction from a trailing window of
// observations. Parametric models estimate their parameters in Fit; Predict
// must be safe for concurrent use once Fit has returned.
package predictors

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// ErrWindowTooShort is returned by Predict when the supplied window has
// fewer samples than the predictor's Order.
var ErrWindowTooShort = errors.New("predictors: window shorter than predictor order")

// ErrNotFitted is returned when a parametric predictor is used before Fit.
var ErrNotFitted = errors.New("predictors: model not fitted")

// ErrUnknownPredictor is returned by the registry for unrecognized names.
var ErrUnknownPredictor = errors.New("predictors: unknown predictor")

// Predictor is a one-step-ahead time-series prediction model.
type Predictor interface {
	// Name returns the model's stable identifier (e.g. "AR", "LAST").
	Name() string
	// Order returns the minimum number of trailing samples Predict needs.
	Order() int
	// Fit estimates model parameters from a training series. Nonparametric
	// models (LAST, SW_AVG, ...) treat Fit as a no-op and never fail.
	Fit(train []float64) error
	// Predict forecasts the value following the given trailing window.
	// The window is not modified. Predict is safe for concurrent use after
	// Fit has returned.
	Predict(window []float64) (float64, error)
}

// checkWindow validates a prediction window against a required order.
func checkWindow(name string, window []float64, order int) error {
	if len(window) < order {
		return fmt.Errorf("%s: window of %d samples, need >= %d: %w",
			name, len(window), order, ErrWindowTooShort)
	}
	return nil
}

// Factory constructs a fresh, unfitted predictor. Window-based factories
// capture their window size.
type Factory func() Predictor

// registry maps canonical predictor names to factories. Names are the class
// labels used throughout the system ("LAST", "AR", "SW_AVG", ...).
var (
	registryMu sync.RWMutex
	registry   = map[string]Factory{}
)

// Register adds a named predictor factory to the global registry,
// overwriting any previous registration with the same name. It is intended
// to be called from init functions or application setup.
func Register(name string, f Factory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	registry[name] = f
}

// NewByName constructs a registered predictor.
func NewByName(name string) (Predictor, error) {
	registryMu.RLock()
	f, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%q: %w", name, ErrUnknownPredictor)
	}
	return f(), nil
}

// RegisteredNames returns the names in the registry (unordered).
func RegisteredNames() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	return names
}

// Pool is an ordered collection of predictors — the mix-of-experts. The
// order is significant: class labels used by the classifier are indexes into
// the pool, matching the paper's "Predictor Class: 1 - LAST, 2 - AR,
// 3 - SW_AVG" convention (figures 4 and 5).
type Pool struct {
	preds []Predictor
}

// NewPool builds a pool from the given predictors. The slice is copied.
func NewPool(preds ...Predictor) *Pool {
	p := make([]Predictor, len(preds))
	copy(p, preds)
	return &Pool{preds: p}
}

// Size returns the number of predictors in the pool.
func (p *Pool) Size() int { return len(p.preds) }

// Predictors returns the pool contents in order. The returned slice is a
// copy; the predictors themselves are shared.
func (p *Pool) Predictors() []Predictor {
	out := make([]Predictor, len(p.preds))
	copy(out, p.preds)
	return out
}

// At returns predictor i.
func (p *Pool) At(i int) Predictor { return p.preds[i] }

// Names returns the predictor names in pool order.
func (p *Pool) Names() []string {
	names := make([]string, len(p.preds))
	for i, pr := range p.preds {
		names[i] = pr.Name()
	}
	return names
}

// IndexOf returns the pool index of the predictor with the given name, or -1.
func (p *Pool) IndexOf(name string) int {
	for i, pr := range p.preds {
		if pr.Name() == name {
			return i
		}
	}
	return -1
}

// MaxOrder returns the largest Order over the pool, i.e. the minimum window
// length that satisfies every expert.
func (p *Pool) MaxOrder() int {
	mx := 0
	for _, pr := range p.preds {
		if o := pr.Order(); o > mx {
			mx = o
		}
	}
	return mx
}

// Fit fits every parametric predictor in the pool on the training series,
// returning the first error encountered.
func (p *Pool) Fit(train []float64) error {
	for _, pr := range p.preds {
		if err := pr.Fit(train); err != nil {
			return fmt.Errorf("fit %s: %w", pr.Name(), err)
		}
	}
	return nil
}

// PredictAll runs every expert on the window and returns their predictions
// in pool order. This is the training-phase "run all prediction models in
// parallel" step; for the small pools here the experts run sequentially
// within one window and callers parallelize across windows instead (see
// LabelParallel), which has far better granularity.
func (p *Pool) PredictAll(window []float64) ([]float64, error) {
	return p.PredictAllInto(nil, window)
}

// PredictAllInto is PredictAll writing into dst when its capacity suffices
// (allocating otherwise) and returning the slice holding the predictions.
// With a sufficiently large dst and allocation-free experts, the call does
// not touch the heap; dst may be nil.
func (p *Pool) PredictAllInto(dst []float64, window []float64) ([]float64, error) {
	if cap(dst) < len(p.preds) {
		dst = make([]float64, len(p.preds))
	}
	dst = dst[:len(p.preds)]
	for i, pr := range p.preds {
		v, err := pr.Predict(window)
		if err != nil {
			return nil, fmt.Errorf("predict %s: %w", pr.Name(), err)
		}
		dst[i] = v
	}
	return dst, nil
}

// Best returns the pool index of the expert whose prediction for the window
// has the smallest absolute error versus the observed target — the paper's
// best-predictor identification rule ("the model that gave the smallest
// absolute value of the error was identified as the best predictor", §7.2.1).
// Ties break toward the lower pool index, keeping labels deterministic.
func (p *Pool) Best(window []float64, target float64) (best int, preds []float64, err error) {
	preds, err = p.PredictAll(window)
	if err != nil {
		return 0, nil, err
	}
	best = 0
	bestErr := absErr(preds[0], target)
	for i := 1; i < len(preds); i++ {
		if e := absErr(preds[i], target); e < bestErr {
			best, bestErr = i, e
		}
	}
	return best, preds, nil
}

func absErr(pred, obs float64) float64 {
	d := pred - obs
	if d < 0 {
		return -d
	}
	return d
}

// LabelResult carries the per-window labeling produced by the training
// phase: the best expert's index and every expert's prediction.
type LabelResult struct {
	Best        int
	Predictions []float64
}

// LabelParallel labels every (window, target) pair with its best expert,
// fanning the windows out over min(GOMAXPROCS, len(windows)) workers. It is
// the parallel mix-of-experts pass of the training phase.
func (p *Pool) LabelParallel(windows [][]float64, targets []float64) ([]LabelResult, error) {
	if len(windows) != len(targets) {
		return nil, fmt.Errorf("predictors: %d windows but %d targets", len(windows), len(targets))
	}
	results := make([]LabelResult, len(windows))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(windows) {
		workers = len(windows)
	}
	if workers < 1 {
		workers = 1
	}

	var (
		wg      sync.WaitGroup
		errOnce sync.Once
		firstEr error
	)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				best, preds, err := p.Best(windows[i], targets[i])
				if err != nil {
					errOnce.Do(func() { firstEr = err })
					continue
				}
				results[i] = LabelResult{Best: best, Predictions: preds}
			}
		}()
	}
	for i := range windows {
		next <- i
	}
	close(next)
	wg.Wait()
	if firstEr != nil {
		return nil, firstEr
	}
	return results, nil
}

func init() {
	Register("LAST", func() Predictor { return NewLast() })
	Register("AR", func() Predictor { return NewAR(DefaultWindow) })
	Register("SW_AVG", func() Predictor { return NewSWAvg(DefaultWindow) })
	Register("RUN_AVG", func() Predictor { return NewRunAvg() })
	Register("SW_MEDIAN", func() Predictor { return NewSWMedian(DefaultWindow) })
	Register("EXP_SMOOTH", func() Predictor { return NewExpSmooth(0.5) })
	Register("TENDENCY", func() Predictor { return NewTendency(0.5) })
	Register("POLY_FIT", func() Predictor { return NewPolyFit(2, DefaultWindow) })
	Register("ADAPT_AVG", func() Predictor { return NewAdaptiveWindowAvg(DefaultWindow) })
	Register("ADAPT_MEDIAN", func() Predictor { return NewAdaptiveWindowMedian(DefaultWindow) })
	Register("MEAN", func() Predictor { return NewMeanPredictor() })
	Register("MA", func() Predictor { return NewMA(DefaultWindow - 1) })
	Register("ARIMA", func() Predictor { return NewARIMA(DefaultWindow-1, 1) })
}

// DefaultWindow is the window size used by registry-constructed window
// predictors; the paper uses m = 5 for the 24-hour traces.
const DefaultWindow = 5
