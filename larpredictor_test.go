package larpredictor_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	larpredictor "github.com/acis-lab/larpredictor"
)

// buildPool builds a canonical pool, failing the test or benchmark on error.
func buildPool(tb testing.TB, windowSize int, tier larpredictor.PoolTier) *larpredictor.Pool {
	tb.Helper()
	pool, err := larpredictor.BuildPool(windowSize, tier)
	if err != nil {
		tb.Fatal(err)
	}
	return pool
}

// workload generates a regime-switching series through the public API's
// trace generator so facade tests exercise real workload shapes.
func workload(t *testing.T) []float64 {
	t.Helper()
	ts := larpredictor.StandardTraceSet(7)
	s, err := ts.Get("VM2", "CPU_usedsec")
	if err != nil {
		t.Fatal(err)
	}
	return s.Values
}

func TestFacadeTrainForecastEvaluate(t *testing.T) {
	vals := workload(t)
	p, err := larpredictor.New(larpredictor.DefaultConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Forecast(vals[:5]); !errors.Is(err, larpredictor.ErrNotTrained) {
		t.Fatalf("pre-train Forecast err = %v", err)
	}
	if err := p.Train(vals[:144]); err != nil {
		t.Fatal(err)
	}
	pred, err := p.Forecast(vals[139:144])
	if err != nil {
		t.Fatal(err)
	}
	if pred.SelectedName == "" || math.IsNaN(pred.Value) {
		t.Fatalf("prediction = %+v", pred)
	}
	res, err := p.Evaluate(vals[144:])
	if err != nil {
		t.Fatal(err)
	}
	if res.N == 0 || res.OracleMSE > res.LARMSE+1e-12 {
		t.Fatalf("eval = %+v", res)
	}
}

func TestFacadeConfigValidation(t *testing.T) {
	if _, err := larpredictor.New(larpredictor.Config{}); !errors.Is(err, larpredictor.ErrBadConfig) {
		t.Fatalf("zero config err = %v", err)
	}
}

func TestFacadeCustomPool(t *testing.T) {
	cfg := larpredictor.DefaultConfig(5)
	cfg.Pool = buildPool(t, 5, larpredictor.TierExtended)
	p, err := larpredictor.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Pool().Size() != 8 {
		t.Fatalf("pool size = %d", p.Pool().Size())
	}
	if err := p.Train(workload(t)); err != nil {
		t.Fatal(err)
	}
}

// reverser is a toy user-defined expert: it predicts the first window value.
type reverser struct{}

func (reverser) Name() string        { return "REVERSER" }
func (reverser) Order() int          { return 2 }
func (reverser) Fit([]float64) error { return nil }
func (reverser) Predict(w []float64) (float64, error) {
	if len(w) < 2 {
		return 0, larpredictor.ErrWindowTooShort
	}
	return w[0], nil
}

func TestFacadeUserDefinedPredictor(t *testing.T) {
	larpredictor.RegisterPredictor("REVERSER", func() larpredictor.Predictor { return reverser{} })
	byName, err := larpredictor.NewPredictor("REVERSER")
	if err != nil {
		t.Fatal(err)
	}
	if byName.Name() != "REVERSER" {
		t.Fatal("registry returned the wrong predictor")
	}
	cfg := larpredictor.DefaultConfig(5)
	experts := append([]larpredictor.Predictor{reverser{}}, buildPool(t, 5, larpredictor.TierPaper).Predictors()...)
	cfg.Pool = larpredictor.NewPool(experts...)
	p, err := larpredictor.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Train(workload(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := larpredictor.NewPredictor("NO_SUCH"); !errors.Is(err, larpredictor.ErrUnknownPredictor) {
		t.Fatal("unknown predictor accepted")
	}
}

func TestFacadeOnline(t *testing.T) {
	o, err := larpredictor.NewOnline(larpredictor.OnlineConfig{
		Predictor:    larpredictor.DefaultConfig(5),
		TrainSize:    60,
		AuditWindow:  10,
		MSEThreshold: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	x := 0.0
	for i := 0; i < 200; i++ {
		if o.Trained() {
			if _, err := o.Forecast(); err != nil {
				t.Fatal(err)
			}
		} else if _, err := o.Forecast(); !errors.Is(err, larpredictor.ErrNotReady) {
			t.Fatalf("untrained Forecast err = %v", err)
		}
		x = 0.9*x + rng.NormFloat64()
		if _, err := o.Observe(x); err != nil {
			t.Fatal(err)
		}
	}
	if !o.Trained() {
		t.Fatal("online predictor never trained")
	}
}

func TestFacadeNWSBaseline(t *testing.T) {
	pool := buildPool(t, 3, larpredictor.TierPaper)
	if err := pool.Fit(workload(t)[:100]); err != nil {
		t.Fatal(err)
	}
	sel, err := larpredictor.NewCumulativeMSE(pool)
	if err != nil {
		t.Fatal(err)
	}
	step, err := sel.Step([]float64{1, 2, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(step.All) != 3 {
		t.Fatalf("step = %+v", step)
	}
	if _, err := larpredictor.NewWindowedMSE(pool, 2); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeTraceSet(t *testing.T) {
	ts := larpredictor.StandardTraceSet(3)
	if len(larpredictor.VMs()) != 5 || len(larpredictor.MetricNames()) != 12 {
		t.Fatal("trace-set geometry wrong")
	}
	for _, vm := range larpredictor.VMs() {
		for _, m := range larpredictor.MetricNames() {
			if _, err := ts.Get(vm, m); err != nil {
				t.Fatalf("%s/%s: %v", vm, m, err)
			}
		}
	}
}

func TestFacadeHelpers(t *testing.T) {
	n := larpredictor.FitNormalizer([]float64{1, 2, 3})
	if n.Mean != 2 {
		t.Fatalf("normalizer = %+v", n)
	}
	s := larpredictor.NewSeries("x", []float64{1, 2})
	if s.Len() != 2 || s.Name != "x" {
		t.Fatalf("series = %+v", s)
	}
	mse, err := larpredictor.MSE([]float64{1}, []float64{3})
	if err != nil || mse != 4 {
		t.Fatalf("MSE = %g, %v", mse, err)
	}
}

func TestFacadeResilienceSurface(t *testing.T) {
	o, err := larpredictor.NewOnline(larpredictor.OnlineConfig{
		Predictor:   larpredictor.DefaultConfig(3),
		TrainSize:   10,
		AuditWindow: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.Health() != larpredictor.Healthy {
		t.Fatalf("fresh predictor health = %v, want Healthy", o.Health())
	}
	if larpredictor.Failed.String() != "Failed" || larpredictor.Fallback.String() != "Fallback" {
		t.Error("health states did not re-export")
	}
	for i := 0; i < 20; i++ {
		if _, err := o.Observe(float64(i % 7)); err != nil {
			t.Fatal(err)
		}
	}
	p, err := o.Forecast()
	if err != nil {
		t.Fatal(err)
	}
	if p.Source != larpredictor.SourceLAR {
		t.Errorf("healthy forecast Source = %q, want %q", p.Source, larpredictor.SourceLAR)
	}
	var hs larpredictor.HealthStats = o.HealthStats()
	if hs.State != larpredictor.Healthy || hs.BreakerOpen {
		t.Errorf("health stats = %+v", hs)
	}
	if larpredictor.ErrFailed == nil || larpredictor.SourceSelector == "" || larpredictor.SourceLastResort == "" {
		t.Error("resilience sentinels did not re-export")
	}
}
