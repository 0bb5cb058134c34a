// Package core implements the paper's primary contribution: the Learning
// Aided Adaptive Resource Predictor (LARPredictor).
//
// Training phase (paper §6.1): the training series is normalized to zero
// mean and unit variance, framed into windows of the prediction order m, and
// every expert in the pool runs in parallel on every window; the expert with
// the smallest absolute prediction error becomes the window's class label.
// The windows are projected to n principal components (n = 2 in the paper)
// and indexed, with their labels, by a k-NN classifier.
//
// Testing phase (paper §6.2): an incoming window is normalized with the
// *training* coefficients, PCA-projected, and classified; the majority vote
// of its k = 3 nearest training windows forecasts the best expert, and only
// that expert runs to produce the forecast.
package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"github.com/acis-lab/larpredictor/internal/knn"
	"github.com/acis-lab/larpredictor/internal/obs"
	"github.com/acis-lab/larpredictor/internal/pca"
	"github.com/acis-lab/larpredictor/internal/predictors"
	"github.com/acis-lab/larpredictor/internal/timeseries"
)

// ErrNotTrained is returned when prediction is attempted before Train.
var ErrNotTrained = errors.New("core: LARPredictor not trained")

// ErrBadConfig is returned for invalid configuration.
var ErrBadConfig = errors.New("core: invalid configuration")

// ErrBadTrainingData is returned by Train for NaN or infinite samples.
var ErrBadTrainingData = errors.New("core: non-finite training data")

// Config parameterizes a LARPredictor. The zero value is not valid; use
// DefaultConfig as a starting point.
type Config struct {
	// WindowSize is the prediction order m — the number of trailing samples
	// each expert sees. The paper uses 5 for 24-hour traces and 16 for the
	// 7-day VM1 trace.
	WindowSize int
	// PCAComponents is the projected dimension n (2 in the paper). Ignored
	// when DisablePCA is set. If 0, MinFractionVariance is used instead.
	PCAComponents int
	// MinFractionVariance selects components by explained variance when
	// PCAComponents == 0.
	MinFractionVariance float64
	// K is the number of nearest neighbors voting (3 in the paper).
	K int
	// UseKDTree switches the neighbor search to the k-d tree backend.
	UseKDTree bool
	// Vote selects the neighbor-combination strategy; the zero value is
	// the paper's majority vote. DistanceWeightedVote and ProbabilityVote
	// implement the alternative strategies the paper's related work
	// surveys.
	Vote knn.VoteStrategy
	// DisablePCA classifies in the raw m-dimensional window space; used by
	// the PCA-dimension ablation.
	DisablePCA bool
	// Pool is the expert pool. When nil, the paper pool
	// {LAST, AR(m), SW_AVG(m)} is constructed.
	Pool *predictors.Pool
}

// DefaultConfig returns the paper's configuration for a given window size:
// PCA to 2 components, 3-NN, the {LAST, AR, SW_AVG} pool.
func DefaultConfig(windowSize int) Config {
	return Config{
		WindowSize:    windowSize,
		PCAComponents: 2,
		K:             3,
	}
}

func (c *Config) validate() error {
	if c.WindowSize < 2 {
		return fmt.Errorf("core: window size %d < 2: %w", c.WindowSize, ErrBadConfig)
	}
	if c.K < 1 {
		return fmt.Errorf("core: k = %d < 1: %w", c.K, ErrBadConfig)
	}
	if !c.DisablePCA && c.PCAComponents == 0 &&
		(c.MinFractionVariance <= 0 || c.MinFractionVariance > 1) {
		return fmt.Errorf("core: no PCA selection rule (components=0, fraction=%g): %w",
			c.MinFractionVariance, ErrBadConfig)
	}
	return nil
}

// LARPredictor is the learning-aided adaptive resource predictor. Construct
// with New, call Train once (or again, to retrain on fresh data), then use
// Forecast/Evaluate. A trained LARPredictor is safe for concurrent
// Forecast/Evaluate calls; Train must not race with them.
type LARPredictor struct {
	cfg  Config
	pool *predictors.Pool

	// Observability hooks; both nil (and free) unless attached via
	// WithMetrics/WithTracer.
	met    *larMetrics
	tracer obs.Tracer

	trained bool
	norm    timeseries.Normalizer
	proj    *pca.PCA
	clf     *knn.Classifier

	// trainLabels[i] is the best-expert label of training frame i; kept for
	// introspection and the experiments' selection-timeline figures.
	trainLabels []int
	// trainFeats[i] is the (projected) feature vector of training frame i —
	// the k-NN training set. Retained so the durable-state codec can
	// serialize the trained classifier without re-labeling.
	trainFeats [][]float64
	// trainFit is the normalized training series of the last successful
	// Train call; restoring a snapshot refits the parametric experts on it,
	// reproducing their state exactly without re-running the labeling pass.
	trainFit []float64
	// trainRMSE[j] is expert j's root-mean-square one-step error over the
	// training frames (normalized space), used as the forecast uncertainty
	// estimate — the quantity conservative scheduling consumes ("using
	// predicted variance to improve scheduling decisions", paper §2).
	trainRMSE []float64
}

// New validates the configuration and returns an untrained LARPredictor.
// Options attach pools, vote strategies, metrics, and tracing; see Option.
func New(cfg Config, opts ...Option) (*LARPredictor, error) {
	set := applyOptions(opts)
	set.apply(&cfg)
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	pool := cfg.Pool
	if pool == nil {
		var err error
		if pool, err = predictors.BuildPool(cfg.WindowSize, predictors.TierPaper); err != nil {
			return nil, err
		}
	}
	if pool.Size() == 0 {
		return nil, fmt.Errorf("core: empty predictor pool: %w", ErrBadConfig)
	}
	if pool.MaxOrder() > cfg.WindowSize {
		return nil, fmt.Errorf("core: pool max order %d exceeds window size %d: %w",
			pool.MaxOrder(), cfg.WindowSize, ErrBadConfig)
	}
	return &LARPredictor{
		cfg:    cfg,
		pool:   pool,
		met:    newLARMetrics(set.metrics, pool),
		tracer: set.tracer,
	}, nil
}

// Pool returns the expert pool.
func (l *LARPredictor) Pool() *predictors.Pool { return l.pool }

// Config returns the predictor's configuration.
func (l *LARPredictor) Config() Config { return l.cfg }

// Trained reports whether Train has completed successfully.
func (l *LARPredictor) Trained() bool { return l.trained }

// Normalizer returns the training-phase normalization coefficients.
func (l *LARPredictor) Normalizer() timeseries.Normalizer { return l.norm }

// TrainingLabels returns a copy of the per-frame best-expert labels
// identified during the last Train call.
func (l *LARPredictor) TrainingLabels() []int {
	out := make([]int, len(l.trainLabels))
	copy(out, l.trainLabels)
	return out
}

// Train fits the LARPredictor on a raw (unnormalized) training series:
// normalization, framing, parallel expert labeling, PCA fit, and k-NN
// indexing. It needs at least WindowSize+2 samples. Retraining replaces all
// fitted state.
func (l *LARPredictor) Train(train []float64) (err error) {
	if l.met != nil || l.tracer != nil {
		start := time.Now()
		sp := obs.StartSpan(l.tracer, obs.StageTrain)
		defer func() {
			if l.met != nil {
				l.met.trainSeconds.Observe(time.Since(start).Seconds())
			}
			obs.EndSpan(sp, err)
		}()
	}
	m := l.cfg.WindowSize
	if len(train) < m+2 {
		return fmt.Errorf("core: %d training samples, need >= %d: %w",
			len(train), m+2, timeseries.ErrShort)
	}
	for i, v := range train {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: non-finite training sample %g at index %d: %w",
				v, i, ErrBadTrainingData)
		}
	}

	norm := timeseries.FitNormalizer(train)
	z := norm.Apply(train)

	frames, err := timeseries.FrameSeries(z, m)
	if err != nil {
		return fmt.Errorf("core: frame training data: %w", err)
	}
	windows := timeseries.Windows(frames)
	targets := timeseries.Targets(frames)

	// Fit parametric experts (AR) on the normalized training series, then
	// run the full pool in parallel to label every window.
	if err := l.pool.Fit(z); err != nil {
		return fmt.Errorf("core: fit pool: %w", err)
	}
	labeled, err := l.pool.LabelParallel(windows, targets)
	if err != nil {
		return fmt.Errorf("core: label training frames: %w", err)
	}
	labels := make([]int, len(labeled))
	rmse := make([]float64, l.pool.Size())
	for i, r := range labeled {
		labels[i] = r.Best
		for j, p := range r.Predictions {
			d := p - targets[i]
			rmse[j] += d * d
		}
	}
	for j := range rmse {
		rmse[j] = math.Sqrt(rmse[j] / float64(len(labeled)))
	}

	// Project the windows for classification.
	var (
		projector *pca.PCA
		feats     [][]float64
	)
	if l.cfg.DisablePCA {
		feats = windows
	} else {
		sel := pca.FixedComponents(l.cfg.PCAComponents)
		if l.cfg.PCAComponents == 0 {
			sel = pca.MinVariance(l.cfg.MinFractionVariance)
		}
		projector, err = pca.Fit(windows, sel)
		if err != nil {
			return fmt.Errorf("core: fit PCA: %w", err)
		}
		feats, err = projector.TransformAll(windows)
		if err != nil {
			return fmt.Errorf("core: project training windows: %w", err)
		}
	}

	clf, err := knn.NewClassifier(feats, labels, knn.Config{
		K:         l.cfg.K,
		UseKDTree: l.cfg.UseKDTree,
		Vote:      l.cfg.Vote,
	})
	if err != nil {
		return fmt.Errorf("core: build classifier: %w", err)
	}

	l.norm = norm
	l.proj = projector
	l.clf = clf
	l.trainLabels = labels
	l.trainFeats = feats
	l.trainFit = z
	l.trainRMSE = rmse
	l.trained = true
	return nil
}

// ExpertTrainRMSE returns a copy of the per-expert one-step RMSE measured on
// the training frames (normalized space), in pool order.
func (l *LARPredictor) ExpertTrainRMSE() []float64 {
	out := make([]float64, len(l.trainRMSE))
	copy(out, l.trainRMSE)
	return out
}

// Forecast sources, reported in Prediction.Source. A healthy Online
// predictor serves SourceLAR; the degraded-mode fallback chain serves
// SourceTournament (context-indexed tournament meta-selection, when the
// tier is enabled), SourceSelector (windowed cumulative-MSE expert
// selection) and, at the bottom of the ladder, SourceLastResort (last
// finite observation).
const (
	SourceLAR        = "LAR"
	SourceTournament = "TOURNAMENT"
	SourceSelector   = "W-CUM-MSE"
	SourceLastResort = "LAST-RESORT"
)

// Prediction is one LARPredictor forecast.
type Prediction struct {
	// Value is the forecast in the original (denormalized) scale.
	Value float64
	// Normalized is the forecast in normalized space, the space the paper
	// reports MSE in.
	Normalized float64
	// Selected is the pool index of the expert the classifier chose.
	Selected int
	// SelectedName is that expert's name.
	SelectedName string
	// StdEstimate is a one-sigma uncertainty estimate for Value in the
	// original scale: the selected expert's training RMSE mapped back
	// through the normalizer. Conservative schedulers provision at
	// Value + c·StdEstimate.
	StdEstimate float64
	// Source identifies which rung of the fallback ladder produced the
	// forecast (SourceLAR for a trained LARPredictor; see the Source*
	// constants). Empty is equivalent to SourceLAR for callers predating
	// the resilience layer.
	Source string
}

// forecastScratch holds the hot forecast path's working buffers — the
// normalized window, the PCA projection, and the k-NN query scratch. The
// buffers are recycled through forecastScratchPool, so the steady-state
// forecast path of every predictor in a process shares a small set of
// scratches (sized by the worker count, not the stream count) and performs
// zero heap allocations.
type forecastScratch struct {
	z    []float64
	feat []float64
	knn  knn.Scratch
}

var forecastScratchPool = sync.Pool{New: func() any { return new(forecastScratch) }}

// Forecast predicts the value following a raw trailing window of at least
// WindowSize samples. Only the classifier-selected expert runs. The
// steady-state path allocates nothing: working buffers come from a shared
// scratch pool.
func (l *LARPredictor) Forecast(window []float64) (Prediction, error) {
	s := forecastScratchPool.Get().(*forecastScratch)
	p, err := l.forecast(window, s)
	forecastScratchPool.Put(s)
	return p, err
}

// forecast is Forecast against an explicit scratch.
func (l *LARPredictor) forecast(window []float64, s *forecastScratch) (Prediction, error) {
	if !l.trained {
		return Prediction{}, ErrNotTrained
	}
	m := l.cfg.WindowSize
	if len(window) < m {
		return Prediction{}, fmt.Errorf("core: window of %d samples, need >= %d: %w",
			len(window), m, predictors.ErrWindowTooShort)
	}
	var start time.Time
	timed := l.met != nil && l.met.sampleForecast()
	if timed {
		start = time.Now()
	}
	sp := obs.StartSpan(l.tracer, obs.StageNormalize)
	s.z = l.norm.ApplyInto(s.z, window[len(window)-m:])
	z := s.z
	obs.EndSpan(sp, nil)
	sel, err := l.classifyScratch(z, s)
	if err != nil {
		return Prediction{}, err
	}
	sp = obs.StartSpan(l.tracer, obs.StageExpertForecast)
	v, err := l.pool.At(sel).Predict(z)
	obs.EndSpan(sp, err)
	if err != nil {
		return Prediction{}, fmt.Errorf("core: %s predict: %w", l.pool.At(sel).Name(), err)
	}
	if l.met != nil {
		if timed {
			l.met.forecastSeconds.Observe(time.Since(start).Seconds())
		}
		l.met.forecastsLAR.Inc()
		l.met.decisions[sel].Inc()
	}
	return Prediction{
		Value:        l.norm.Invert(v),
		Normalized:   v,
		Selected:     sel,
		SelectedName: l.pool.At(sel).Name(),
		StdEstimate:  l.trainRMSE[sel] * l.norm.Std,
		Source:       SourceLAR,
	}, nil
}

// classify forecasts the best expert for a normalized window.
func (l *LARPredictor) classify(z []float64) (int, error) {
	s := forecastScratchPool.Get().(*forecastScratch)
	sel, err := l.classifyScratch(z, s)
	forecastScratchPool.Put(s)
	return sel, err
}

// classifyScratch is classify against an explicit scratch.
func (l *LARPredictor) classifyScratch(z []float64, s *forecastScratch) (int, error) {
	feat := z
	if l.proj != nil {
		sp := obs.StartSpan(l.tracer, obs.StagePCAProject)
		var err error
		s.feat, err = l.proj.TransformInto(s.feat, z)
		feat = s.feat
		obs.EndSpan(sp, err)
		if err != nil {
			return 0, fmt.Errorf("core: project window: %w", err)
		}
	}
	sp := obs.StartSpan(l.tracer, obs.StageKNNClassify)
	sel, err := l.clf.ClassifyScratch(feat, &s.knn)
	obs.EndSpan(sp, err)
	if err != nil {
		return 0, fmt.Errorf("core: classify window: %w", err)
	}
	return sel, nil
}

// EvalResult aggregates a test-set evaluation. All MSE values are in
// normalized space, matching the paper's "Normalized Prediction MSE"
// (Table 2); Forecasts and Targets are normalized too.
type EvalResult struct {
	// N is the number of evaluated frames.
	N int
	// LARMSE is the MSE of the LARPredictor's published forecasts.
	LARMSE float64
	// OracleMSE is the P-LAR bound: the MSE attained with 100% best-expert
	// forecasting accuracy.
	OracleMSE float64
	// ExpertMSE[i] is the MSE expert i would score running alone.
	ExpertMSE []float64
	// Selected[i] is the expert the classifier chose for frame i.
	Selected []int
	// ObservedBest[i] is the truly best expert for frame i.
	ObservedBest []int
	// ForecastAccuracy is the fraction of frames where Selected matches
	// ObservedBest — the paper's "best predictor forecasting accuracy".
	ForecastAccuracy float64
	// Forecasts[i] is the LAR forecast for frame i (normalized space).
	Forecasts []float64
	// Targets[i] is the observed value for frame i (normalized space).
	Targets []float64
}

// BestExpertMSE returns the lowest single-expert MSE and its pool index.
func (r *EvalResult) BestExpertMSE() (float64, int) {
	best, idx := r.ExpertMSE[0], 0
	for i, v := range r.ExpertMSE {
		if v < best {
			best, idx = v, i
		}
	}
	return best, idx
}

// Evaluate runs the trained LARPredictor over a raw test series: each test
// frame is classified, forecast by the selected expert, and compared against
// the observation. It also runs the full pool on every frame to report the
// observed best expert, per-expert MSE, and the P-LAR oracle bound. Frames
// are processed in parallel.
func (l *LARPredictor) Evaluate(test []float64) (*EvalResult, error) {
	if !l.trained {
		return nil, ErrNotTrained
	}
	z := l.norm.Apply(test)
	frames, err := timeseries.FrameSeries(z, l.cfg.WindowSize)
	if err != nil {
		return nil, fmt.Errorf("core: frame test data: %w", err)
	}

	n := len(frames)
	res := &EvalResult{
		N:            n,
		ExpertMSE:    make([]float64, l.pool.Size()),
		Selected:     make([]int, n),
		ObservedBest: make([]int, n),
		Forecasts:    make([]float64, n),
		Targets:      make([]float64, n),
	}

	type frameOut struct {
		sel, best int
		forecast  float64
		expertSq  []float64
		err       error
	}
	outs := make([]frameOut, n)

	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f := frames[i]
				sel, cerr := l.classify(f.Window)
				if cerr != nil {
					outs[i] = frameOut{err: cerr}
					continue
				}
				best, all, perr := l.pool.Best(f.Window, f.Target)
				if perr != nil {
					outs[i] = frameOut{err: perr}
					continue
				}
				sq := make([]float64, len(all))
				for j, p := range all {
					d := p - f.Target
					sq[j] = d * d
				}
				outs[i] = frameOut{sel: sel, best: best, forecast: all[sel], expertSq: sq}
			}
		}()
	}
	for i := range frames {
		next <- i
	}
	close(next)
	wg.Wait()

	var larSq, oracleSq float64
	correct := 0
	for i, o := range outs {
		if o.err != nil {
			return nil, fmt.Errorf("core: evaluate frame %d: %w", i, o.err)
		}
		res.Selected[i] = o.sel
		res.ObservedBest[i] = o.best
		res.Forecasts[i] = o.forecast
		res.Targets[i] = frames[i].Target
		if o.sel == o.best {
			correct++
		}
		larSq += o.expertSq[o.sel]
		oracleSq += o.expertSq[o.best]
		for j, s := range o.expertSq {
			res.ExpertMSE[j] += s
		}
	}
	inv := 1 / float64(n)
	res.LARMSE = larSq * inv
	res.OracleMSE = oracleSq * inv
	for j := range res.ExpertMSE {
		res.ExpertMSE[j] *= inv
	}
	res.ForecastAccuracy = float64(correct) * inv
	return res, nil
}
