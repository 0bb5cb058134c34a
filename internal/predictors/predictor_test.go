package predictors

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// buildPool builds a canonical pool, failing the test or benchmark on error.
func buildPool(tb testing.TB, windowSize int, tier PoolTier) *Pool {
	tb.Helper()
	pool, err := BuildPool(windowSize, tier)
	if err != nil {
		tb.Fatal(err)
	}
	return pool
}

// fitted returns a predictor of the given name fitted on train, failing the
// test on error.
func fitted(t *testing.T, p Predictor, train []float64) Predictor {
	t.Helper()
	if err := p.Fit(train); err != nil {
		t.Fatalf("fit %s: %v", p.Name(), err)
	}
	return p
}

func TestRegistry(t *testing.T) {
	for _, name := range []string{"LAST", "AR", "SW_AVG", "RUN_AVG", "SW_MEDIAN",
		"EXP_SMOOTH", "TENDENCY", "POLY_FIT", "ADAPT_AVG", "ADAPT_MEDIAN", "MEAN"} {
		p, err := NewByName(name)
		if err != nil {
			t.Errorf("NewByName(%q): %v", name, err)
			continue
		}
		if p.Name() != name {
			t.Errorf("NewByName(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := NewByName("NO_SUCH"); !errors.Is(err, ErrUnknownPredictor) {
		t.Errorf("unknown predictor err = %v", err)
	}
	registryMu.RLock()
	n := len(registry)
	registryMu.RUnlock()
	if n < 11 {
		t.Errorf("registry has %d entries, want >= 11", n)
	}
}

func TestRegisterCustom(t *testing.T) {
	Register("CUSTOM_TEST", func() Predictor { return NewLast() })
	p, err := NewByName("CUSTOM_TEST")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "LAST" {
		t.Error("custom factory not used")
	}
}

func TestPaperPoolOrder(t *testing.T) {
	pool := buildPool(t, 5, TierPaper)
	want := []string{"LAST", "AR", "SW_AVG"}
	got := pool.Names()
	if len(got) != len(want) {
		t.Fatalf("pool names = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pool names = %v, want %v", got, want)
		}
	}
	if pool.IndexOf("AR") != 1 || pool.IndexOf("NOPE") != -1 {
		t.Error("IndexOf wrong")
	}
	if pool.MaxOrder() != 5 {
		t.Errorf("MaxOrder = %d, want 5", pool.MaxOrder())
	}
}

func TestExtendedPoolSize(t *testing.T) {
	pool := buildPool(t, 5, TierExtended)
	if pool.Size() != 8 {
		t.Errorf("extended pool size = %d, want 8", pool.Size())
	}
}

func TestPoolPredictAllAndBest(t *testing.T) {
	pool := buildPool(t, 3, TierPaper)
	train := []float64{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1}
	if err := pool.Fit(train); err != nil {
		t.Fatal(err)
	}
	window := []float64{1, 0, 1}
	preds, err := pool.PredictAll(window)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 3 {
		t.Fatalf("PredictAll returned %d values", len(preds))
	}
	// LAST predicts 1; SW_AVG predicts 2/3. The alternating series should
	// make AR predict near 0 (next value of the 0,1,0,1 pattern).
	if preds[0] != 1 {
		t.Errorf("LAST = %g", preds[0])
	}
	if !almostEqual(preds[2], 2.0/3, 1e-12) {
		t.Errorf("SW_AVG = %g", preds[2])
	}
	best, _, err := pool.Best(window, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pool.At(best).Name() != "AR" {
		t.Errorf("best for alternating series = %s, want AR (preds=%v)", pool.At(best).Name(), preds)
	}
}

func TestPoolBestTieBreaksLow(t *testing.T) {
	// Two LAST predictors tie exactly; index 0 must win.
	pool := NewPool(NewLast(), NewLast())
	best, _, err := pool.Best([]float64{5}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if best != 0 {
		t.Errorf("tie broke to %d, want 0", best)
	}
}

func TestPredictorsDeterministicProperty(t *testing.T) {
	// Every predictor must be a pure function of (fit data, window).
	train := make([]float64, 64)
	rng := rand.New(rand.NewSource(5))
	for i := range train {
		train[i] = rng.NormFloat64()
	}
	pool := buildPool(t, 5, TierExtended)
	if err := pool.Fit(train); err != nil {
		t.Fatal(err)
	}
	f := func(raw [8]float64) bool {
		w := raw[:]
		for _, x := range w {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		for _, p := range pool.Predictors() {
			a, err1 := p.Predict(w)
			b, err2 := p.Predict(w)
			if (err1 == nil) != (err2 == nil) {
				return false
			}
			if err1 == nil && a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPredictorsRejectShortWindows(t *testing.T) {
	pool := buildPool(t, 5, TierExtended)
	if err := pool.Fit(make([]float64, 32)); err != nil {
		t.Fatal(err)
	}
	for _, p := range pool.Predictors() {
		if p.Order() <= 1 {
			continue
		}
		short := make([]float64, p.Order()-1)
		if _, err := p.Predict(short); !errors.Is(err, ErrWindowTooShort) {
			t.Errorf("%s accepted short window (err=%v)", p.Name(), err)
		}
	}
}
