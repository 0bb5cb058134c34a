package nws

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/acis-lab/larpredictor/internal/faults"
	"github.com/acis-lab/larpredictor/internal/predictors"
	"github.com/acis-lab/larpredictor/internal/timeseries"
	"github.com/acis-lab/larpredictor/internal/vmtrace"
)

// paperPool builds the paper's three-expert pool for window m.
func paperPool(t *testing.T, m int) *predictors.Pool {
	t.Helper()
	pool, err := predictors.BuildPool(m, predictors.TierPaper)
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

func fittedPool(t *testing.T, m int, train []float64) *predictors.Pool {
	t.Helper()
	pool := paperPool(t, m)
	if err := pool.Fit(train); err != nil {
		t.Fatal(err)
	}
	return pool
}

func TestNewSelectorValidation(t *testing.T) {
	if _, err := NewCumulativeMSE(nil); !errors.Is(err, ErrNoPool) {
		t.Error("accepted nil pool")
	}
	if _, err := NewCumulativeMSE(predictors.NewPool()); !errors.Is(err, ErrNoPool) {
		t.Error("accepted empty pool")
	}
	pool := paperPool(t, 3)
	if _, err := NewWindowedMSE(pool, 0); err == nil {
		t.Error("accepted window 0")
	}
}

func TestFirstStepSelectsLowestIndex(t *testing.T) {
	pool := fittedPool(t, 3, []float64{1, 2, 3, 4, 5, 6, 7, 8})
	s, err := NewCumulativeMSE(pool)
	if err != nil {
		t.Fatal(err)
	}
	step, err := s.Step([]float64{1, 2, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if step.Selected != 0 {
		t.Errorf("cold-start selection = %d, want 0", step.Selected)
	}
	if len(step.All) != 3 {
		t.Errorf("All has %d entries", len(step.All))
	}
	if step.Prediction != step.All[0] {
		t.Error("published prediction is not the selected expert's")
	}
}

func TestCumulativeSelectionConverges(t *testing.T) {
	// Construct a pool where LAST is consistently best (a smooth ramp) and
	// verify the selector converges to it.
	pool := predictors.NewPool(predictors.NewSWAvg(4), predictors.NewLast())
	s, err := NewCumulativeMSE(pool)
	if err != nil {
		t.Fatal(err)
	}
	v := make([]float64, 64)
	for i := range v {
		v[i] = float64(i)
	}
	frames, err := timeseries.FrameSeries(v, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(frames)
	if err != nil {
		t.Fatal(err)
	}
	// After the first couple of steps, LAST (index 1) must dominate.
	for i := 3; i < len(res.Selected); i++ {
		if res.Selected[i] != 1 {
			t.Fatalf("step %d selected %d, want LAST", i, res.Selected[i])
		}
	}
	if res.MSE <= 0 {
		t.Error("ramp MSE should be positive for LAST (constant +1 error)")
	}
}

func TestWindowedSelectorAdaptsFasterThanCumulative(t *testing.T) {
	// Regime change: long stretch where LAST wins, then a regime where
	// SW_AVG wins. The windowed selector must switch sooner.
	// Ramp with slope 1: LAST errs 1/step (sq 1), SW_AVG(4) errs 2.5/step
	// (sq 6.25) — LAST builds a big cumulative lead. Then a mild
	// oscillation 5±1: LAST errs 2/step (sq 4), SW_AVG ~1 (sq ~1). The
	// cumulative average needs ~175 steps to cross; the window-2 selector
	// crosses within a couple of steps.
	rng := rand.New(rand.NewSource(4))
	var v []float64
	for i := 0; i < 100; i++ { // smooth ramp: LAST wins
		v = append(v, float64(i))
	}
	for i := 0; i < 100; i++ { // mild oscillation around 5: SW_AVG wins
		v = append(v, 5+2*float64(i%2)-1+rng.Float64()*0.01)
	}
	pool := predictors.NewPool(predictors.NewLast(), predictors.NewSWAvg(4))
	frames, err := timeseries.FrameSeries(v, 4)
	if err != nil {
		t.Fatal(err)
	}

	cum, err := NewCumulativeMSE(pool)
	if err != nil {
		t.Fatal(err)
	}
	win, err := NewWindowedMSE(pool, 2)
	if err != nil {
		t.Fatal(err)
	}
	cres, err := cum.Run(frames)
	if err != nil {
		t.Fatal(err)
	}
	wres, err := win.Run(frames)
	if err != nil {
		t.Fatal(err)
	}
	firstSwitch := func(sel []int) int {
		for i := 98; i < len(sel); i++ {
			if sel[i] == 1 {
				return i
			}
		}
		return len(sel)
	}
	cs, ws := firstSwitch(cres.Selected), firstSwitch(wres.Selected)
	if ws >= cs {
		t.Errorf("windowed selector switched at %d, cumulative at %d; windowed should adapt faster", ws, cs)
	}
}

func TestStepErrorsAccumulateBeforeNextSelection(t *testing.T) {
	// Expert 0 (LAST) makes a huge error on step 1; step 2 must select
	// expert 1 if expert 1 was accurate.
	pool := predictors.NewPool(predictors.NewLast(), predictors.NewSWAvg(2))
	s, err := NewCumulativeMSE(pool)
	if err != nil {
		t.Fatal(err)
	}
	// window [0, 10]: LAST predicts 10, SW_AVG predicts 5. observed 5:
	// LAST err 25, SW err 0.
	if _, err := s.Step([]float64{0, 10}, 5); err != nil {
		t.Fatal(err)
	}
	step, err := s.Step([]float64{10, 5}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if step.Selected != 1 {
		t.Errorf("step 2 selected %d, want SW_AVG after LAST's big miss", step.Selected)
	}
}

func TestReset(t *testing.T) {
	pool := predictors.NewPool(predictors.NewLast(), predictors.NewSWAvg(2))
	for _, mk := range []func() (*Selector, error){
		func() (*Selector, error) { return NewCumulativeMSE(pool) },
		func() (*Selector, error) { return NewWindowedMSE(pool, 3) },
	} {
		s, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Step([]float64{0, 10}, 5); err != nil {
			t.Fatal(err)
		}
		s.Reset()
		step, err := s.Step([]float64{0, 10}, 5)
		if err != nil {
			t.Fatal(err)
		}
		if step.Selected != 0 {
			t.Errorf("post-Reset selection = %d, want cold-start 0", step.Selected)
		}
	}
}

func TestRunEmptyFrames(t *testing.T) {
	pool := fittedPool(t, 2, []float64{1, 2, 3, 4})
	s, err := NewCumulativeMSE(pool)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.MSE != 0 || len(res.Selected) != 0 {
		t.Errorf("empty run = %+v", res)
	}
}

func TestRunPropagatesPredictorErrors(t *testing.T) {
	pool := predictors.NewPool(predictors.NewSWAvg(5))
	s, err := NewCumulativeMSE(pool)
	if err != nil {
		t.Fatal(err)
	}
	frames := []timeseries.Frame{{Window: []float64{1, 2}, Target: 3}}
	if _, err := s.Run(frames); err == nil {
		t.Error("short window did not propagate an error")
	}
}

func TestRunMSEMatchesManualComputation(t *testing.T) {
	pool := predictors.NewPool(predictors.NewLast())
	s, err := NewCumulativeMSE(pool)
	if err != nil {
		t.Fatal(err)
	}
	v := []float64{1, 2, 4, 8}
	frames, err := timeseries.FrameSeries(v, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(frames)
	if err != nil {
		t.Fatal(err)
	}
	// LAST errors: (2-1), (4-2), (8-4) → MSE = (1+4+16)/3 = 7.
	if math.Abs(res.MSE-7) > 1e-12 {
		t.Errorf("MSE = %g, want 7", res.MSE)
	}
}

func TestSelectAndErrStatsMirrorStep(t *testing.T) {
	// A smooth ramp makes LAST the consistently best expert; Select and
	// ErrStats must expose the same state Step uses internally, without
	// mutating it.
	pool := predictors.NewPool(predictors.NewSWAvg(4), predictors.NewLast())
	s, err := NewCumulativeMSE(pool)
	if err != nil {
		t.Fatal(err)
	}
	window := []float64{1, 2, 3, 4}
	for v := 5.0; v < 25; v++ {
		if _, err := s.Step(window, v); err != nil {
			t.Fatal(err)
		}
		window = append(window[1:], v)
	}
	sel := s.Select()
	if sel != 1 {
		t.Errorf("Select() = %d, want 1 (LAST) on a smooth ramp", sel)
	}
	stats := s.ErrStats()
	if len(stats) != pool.Size() {
		t.Fatalf("ErrStats returned %d entries for a pool of %d", len(stats), pool.Size())
	}
	if !(stats[1] < stats[0]) {
		t.Errorf("ErrStats = %v: selected expert's MSE is not the minimum", stats)
	}
	// Read-only: a second call and a Step selection must agree.
	if again := s.Select(); again != sel {
		t.Errorf("Select() changed state: %d then %d", sel, again)
	}
	step, err := s.Step(window, 25)
	if err != nil {
		t.Fatal(err)
	}
	if step.Selected != sel {
		t.Errorf("Step selected %d after Select() reported %d", step.Selected, sel)
	}
}

// TestNaNBurstDoesNotPoisonSelection is the regression test for the
// score-poisoning bug: a single non-finite observation (or expert forecast)
// used to be folded straight into the error statistics, where it turned the
// cumulative statistic NaN forever — every later comparison on the poisoned
// statistic is false, so selection freezes on expert 0 no matter how the
// experts actually perform. Non-finite terms must be skipped instead.
func TestNaNBurstDoesNotPoisonSelection(t *testing.T) {
	// A smooth ramp, so LAST is consistently the best expert, poisoned by a
	// periodic NaN burst from the faults package.
	const n = 128
	step := 5 * time.Minute
	epoch := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	clean := make([]float64, n)
	for i := range clean {
		clean[i] = float64(i)
	}
	poisoned, _ := faults.InjectValues(clean, vmtrace.VMID("VM1"), "CPU_usedsec", epoch, step,
		&faults.NaNBurst{Epoch: epoch, Start: 20 * step, Len: 2 * step, Period: 40 * step})

	pool := predictors.NewPool(predictors.NewSWAvg(4), predictors.NewLast())
	s, err := NewCumulativeMSE(pool)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := timeseries.FrameSeries(poisoned, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(frames)
	if err != nil {
		t.Fatal(err)
	}
	// Selection must track LAST (index 1) at the end of the trace, and the
	// error statistics must have stayed finite throughout.
	if got := res.Selected[len(res.Selected)-1]; got != 1 {
		t.Errorf("final selection = %d after NaN bursts, want LAST", got)
	}
	for i, e := range s.ErrStats() {
		if math.IsNaN(e) {
			t.Errorf("expert %d error statistic is NaN: the burst poisoned it", i)
		}
	}

	// The windowed variant has the same bug with a window-long horizon.
	w, err := NewWindowedMSE(pool, 2)
	if err != nil {
		t.Fatal(err)
	}
	wres, err := w.Run(frames)
	if err != nil {
		t.Fatal(err)
	}
	if got := wres.Selected[len(wres.Selected)-1]; got != 1 {
		t.Errorf("windowed final selection = %d after NaN bursts, want LAST", got)
	}
	for i, e := range w.ErrStats() {
		if math.IsNaN(e) {
			t.Errorf("windowed expert %d error statistic is NaN", i)
		}
	}
}

// TestStaleExpertIsBenched: an expert that stops producing finite forecasts
// is excluded from selection once it exhausts its staleness budget, and
// rejoins as soon as it produces a scorable forecast again.
func TestStaleExpertIsBenched(t *testing.T) {
	// SW_AVG(2) sees the NaN at the head of the window and predicts NaN;
	// LAST sees only the tail and stays finite.
	pool := predictors.NewPool(predictors.NewSWAvg(2), predictors.NewLast())
	s, err := NewWindowedMSE(pool, 2)
	if err != nil {
		t.Fatal(err)
	}
	// First give SW_AVG the better record so only benching can unseat it.
	for i := 0; i < 4; i++ {
		if _, err := s.Step([]float64{10, 10}, 10); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Select(); got != 0 {
		t.Fatalf("selection = %d on clean steps, want SW_AVG", got)
	}
	// Now SW_AVG goes non-finite for more than the budget (= window = 2).
	for i := 0; i < 3; i++ {
		if _, err := s.Step([]float64{math.NaN(), 10}, 10); err != nil {
			t.Fatal(err)
		}
	}
	if e := s.ErrStats()[0]; !math.IsInf(e, 1) {
		t.Errorf("stale expert's statistic = %g, want +Inf (benched)", e)
	}
	if got := s.Select(); got != 1 {
		t.Errorf("selection = %d with expert 0 benched, want LAST", got)
	}
	// One finite forecast un-benches it.
	if _, err := s.Step([]float64{10, 10}, 10); err != nil {
		t.Fatal(err)
	}
	if e := s.ErrStats()[0]; math.IsInf(e, 1) {
		t.Error("expert 0 still benched after a scorable step")
	}
}
