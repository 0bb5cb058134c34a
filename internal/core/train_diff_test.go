package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/acis-lab/larpredictor/internal/pca"
	"github.com/acis-lab/larpredictor/internal/predictors"
	"github.com/acis-lab/larpredictor/internal/timeseries"
)

// refLabelResult and refLabelParallel are the labeling pass Train used to
// run: windows fanned out over GOMAXPROCS goroutines, each labeled by
// Pool.Best with a fresh predictions slice. They live here only as the
// reference the serial pass must match bit for bit.
type refLabelResult struct {
	Best        int
	Predictions []float64
}

func refLabelParallel(p *predictors.Pool, windows [][]float64, targets []float64) ([]refLabelResult, error) {
	results := make([]refLabelResult, len(windows))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(windows) {
		workers = len(windows)
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
				results[i] = refLabelResult{Best: best, Predictions: preds}
			}
		}()
	}
	for i := range windows {
		next <- i
	}
	close(next)
	wg.Wait()
	return results, firstEr
}

// refTrained is what the reference training pass produces.
type refTrained struct {
	labels []int
	rmse   []float64
	pca    *pca.State // nil with DisablePCA
	feats  [][]float64
}

// refTrain is Train's fitting path as it was before labeling went serial:
// frame, fit the pool, label in parallel, accumulate RMSE, fit PCA and
// project every window with its own Transform call.
func refTrain(t *testing.T, cfg Config, pool *predictors.Pool, train []float64) refTrained {
	t.Helper()
	z := timeseries.FitNormalizer(train).Apply(train)
	frames, err := timeseries.FrameSeries(z, cfg.WindowSize)
	if err != nil {
		t.Fatal(err)
	}
	windows, targets := make([][]float64, len(frames)), make([]float64, len(frames))
	for i, f := range frames {
		windows[i], targets[i] = f.Window, f.Target
	}
	if err := pool.Fit(z); err != nil {
		t.Fatal(err)
	}
	labeled, err := refLabelParallel(pool, windows, targets)
	if err != nil {
		t.Fatal(err)
	}
	out := refTrained{labels: make([]int, len(labeled)), rmse: make([]float64, pool.Size())}
	for i, r := range labeled {
		out.labels[i] = r.Best
		for j, p := range r.Predictions {
			d := p - targets[i]
			out.rmse[j] += d * d
		}
	}
	for j := range out.rmse {
		out.rmse[j] = math.Sqrt(out.rmse[j] / float64(len(labeled)))
	}
	if cfg.DisablePCA {
		out.feats = windows
		return out
	}
	sel := pca.FixedComponents(cfg.PCAComponents)
	if cfg.PCAComponents == 0 {
		sel = pca.MinVariance(cfg.MinFractionVariance)
	}
	proj, err := pca.Fit(windows, sel)
	if err != nil {
		t.Fatal(err)
	}
	if out.pca, err = proj.State(); err != nil {
		t.Fatal(err)
	}
	for _, w := range windows {
		f, err := proj.Transform(w)
		if err != nil {
			t.Fatal(err)
		}
		out.feats = append(out.feats, f)
	}
	return out
}

// diffSeries returns seeded training series of several shapes. The plateau
// and constant-run series make experts tie exactly on many windows (LAST and
// SW_AVG both forecast a flat window's value).
func diffSeries(seed int64, n int) map[string][]float64 {
	rng := rand.New(rand.NewSource(seed))
	ar, walk, plateau, bursty := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := 1; i < n; i++ {
		ar[i] = 0.8*ar[i-1] + rng.NormFloat64()
		walk[i] = walk[i-1] + rng.NormFloat64()
		plateau[i] = plateau[i-1]
		if rng.Intn(12) == 0 {
			plateau[i] = float64(rng.Intn(5))
		}
		if rng.Intn(4) == 0 {
			bursty[i] = rng.ExpFloat64() * 50
		}
	}
	return map[string][]float64{"ar": ar, "walk": walk, "plateau": plateau, "bursty": bursty}
}

// TestTrainMatchesParallelLabeling checks that Train's serial labeling gives
// the same labels, per-expert training RMSE, PCA state and k-NN points, bit
// for bit, as the parallel Pool.Best pass it replaced.
func TestTrainMatchesParallelLabeling(t *testing.T) {
	pools := map[string]func(m int) *predictors.Pool{
		"paper": func(m int) *predictors.Pool {
			p, err := predictors.BuildPool(m, predictors.TierPaper)
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
		// Duplicated experts tie on every window; the lower index must win.
		"tied": func(m int) *predictors.Pool {
			return predictors.NewPool(predictors.NewLast(), predictors.NewSWAvg(m), predictors.NewLast(), predictors.NewSWAvg(m))
		},
		"extended": func(m int) *predictors.Pool {
			p, err := predictors.BuildPool(m, predictors.TierExtended)
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
	}
	configs := map[string]Config{
		"default5":   DefaultConfig(5),
		"window16":   DefaultConfig(16),
		"minvar":     {WindowSize: 8, MinFractionVariance: 0.9, K: 3},
		"disablePCA": {WindowSize: 5, K: 3, DisablePCA: true},
	}
	for seed := int64(1); seed <= 3; seed++ {
		for sname, series := range diffSeries(seed, 200) {
			for cname, cfg := range configs {
				for pname, mkPool := range pools {
					for _, n := range []int{cfg.WindowSize + 2, 60, len(series)} {
						name := fmt.Sprintf("seed%d/%s/%s/%s/n%d", seed, sname, cname, pname, n)
						train := series[:n]
						c := cfg
						c.Pool = mkPool(cfg.WindowSize)
						lar, err := New(c)
						if err != nil {
							t.Fatal(err)
						}
						if err := lar.Train(train); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						want := refTrain(t, cfg, mkPool(cfg.WindowSize), train)
						compareTrained(t, name, lar, want)
					}
				}
			}
		}
	}
}

func compareTrained(t *testing.T, name string, lar *LARPredictor, want refTrained) {
	t.Helper()
	sameBits := func(what string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %s has %d values, reference %d", name, what, len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: %s[%d] = %v, reference %v", name, what, i, got[i], want[i])
			}
		}
	}
	labels := lar.TrainingLabels()
	if len(labels) != len(want.labels) {
		t.Fatalf("%s: %d labels, reference %d", name, len(labels), len(want.labels))
	}
	for i := range labels {
		if labels[i] != want.labels[i] {
			t.Fatalf("%s: label[%d] = %d, reference %d", name, i, labels[i], want.labels[i])
		}
	}
	sameBits("training RMSE", lar.ExpertTrainRMSE(), want.rmse)
	if (lar.proj == nil) != (want.pca == nil) {
		t.Fatalf("%s: PCA fitted %v, reference %v", name, lar.proj != nil, want.pca != nil)
	}
	if want.pca != nil {
		got, err := lar.proj.State()
		if err != nil {
			t.Fatal(err)
		}
		sameBits("PCA mean", got.Mean, want.pca.Mean)
		sameBits("PCA eigenvalues", got.Eigenvalues, want.pca.Eigenvalues)
		sameBits("PCA total variance", []float64{got.TotalVariance}, []float64{want.pca.TotalVariance})
		if len(got.Components) != len(want.pca.Components) {
			t.Fatalf("%s: %d components, reference %d", name, len(got.Components), len(want.pca.Components))
		}
		for c := range got.Components {
			sameBits(fmt.Sprintf("component %d", c), got.Components[c], want.pca.Components[c])
		}
	}
	points := lar.clf.Points()
	if len(points) != len(want.feats) {
		t.Fatalf("%s: %d k-NN points, reference %d", name, len(points), len(want.feats))
	}
	for i := range points {
		sameBits(fmt.Sprintf("k-NN point %d", i), points[i], want.feats[i])
	}
}
