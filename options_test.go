package larpredictor_test

import (
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	larpredictor "github.com/acis-lab/larpredictor"
)

// TestFacadeOptions trains through the options API and checks that
// WithPool/WithVote override the Config fields, WithMetrics populates a
// registry, and WithTracer sees every pipeline stage.
func TestFacadeOptions(t *testing.T) {
	vals := workload(t)

	pool, err := larpredictor.BuildPool(5, larpredictor.TierExtended)
	if err != nil {
		t.Fatal(err)
	}
	reg := larpredictor.NewRegistry()
	rec := larpredictor.NewSpanRecorder()

	p, err := larpredictor.New(larpredictor.DefaultConfig(5),
		larpredictor.WithPool(pool),
		larpredictor.WithVote(larpredictor.DistanceWeightedVote),
		larpredictor.WithMetrics(reg),
		larpredictor.WithTracer(rec),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Train(vals[:144]); err != nil {
		t.Fatal(err)
	}
	if got := p.Pool(); got.Size() != pool.Size() {
		t.Errorf("pool size %d, want %d (WithPool ignored?)", got.Size(), pool.Size())
	}
	if _, err := p.Forecast(vals[139:144]); err != nil {
		t.Fatal(err)
	}

	counts := rec.CountByStage()
	for _, stage := range []larpredictor.Stage{
		larpredictor.StageTrain,
		larpredictor.StageNormalize,
		larpredictor.StagePCAProject,
		larpredictor.StageKNNClassify,
		larpredictor.StageExpertForecast,
	} {
		if counts[stage] == 0 {
			t.Errorf("tracer saw no %s spans", stage)
		}
	}

	srv := httptest.NewServer(larpredictor.MetricsHandler(reg))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		`larpredictor_forecasts_total{source="LAR"} 1`,
		"larpredictor_classifier_decisions_total{",
		"larpredictor_forecast_seconds_bucket{",
		"larpredictor_train_seconds_count",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
}

// TestFacadeBuildPool pins the tier rosters and error paths.
func TestFacadeBuildPool(t *testing.T) {
	sizes := map[larpredictor.PoolTier]int{
		larpredictor.TierPaper:    3,
		larpredictor.TierExtended: 8,
		larpredictor.TierFull:     10,
	}
	for tier, want := range sizes {
		p, err := larpredictor.BuildPool(5, tier)
		if err != nil {
			t.Fatalf("BuildPool(5, %v): %v", tier, err)
		}
		if p.Size() != want {
			t.Errorf("BuildPool(5, %v) size %d, want %d", tier, p.Size(), want)
		}
	}
	// Extra experts append after the tier roster.
	p, err := larpredictor.BuildPool(5, larpredictor.TierPaper, &tripler{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 4 || p.At(3).Name() != "TRIPLE" {
		t.Errorf("extra expert not appended: size %d", p.Size())
	}
	// The full tier needs room for MA/ARIMA lags.
	if _, err := larpredictor.BuildPool(2, larpredictor.TierFull); err == nil {
		t.Error("BuildPool(2, TierFull) succeeded, want error")
	}
	if _, err := larpredictor.BuildPool(5, larpredictor.PoolTier(99)); err == nil {
		t.Error("BuildPool with unknown tier succeeded, want error")
	}
}

// tripler is a trivial custom expert for the extra-argument test.
type tripler struct{}

func (*tripler) Name() string              { return "TRIPLE" }
func (*tripler) Order() int                { return 1 }
func (*tripler) Fit(train []float64) error { return nil }
func (*tripler) Predict(window []float64) (float64, error) {
	if len(window) == 0 {
		return 0, larpredictor.ErrWindowTooShort
	}
	return 3 * window[len(window)-1], nil
}

// TestFacadeOnlineStep drives the streaming predictor through Step and
// checks it matches the Observe+Forecast contract.
func TestFacadeOnlineStep(t *testing.T) {
	vals := workload(t)
	o, err := larpredictor.NewOnline(larpredictor.OnlineConfig{
		Predictor:    larpredictor.DefaultConfig(5),
		TrainSize:    60,
		AuditWindow:  12,
		MSEThreshold: 2.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	var forecasts int
	for _, v := range vals[:144] {
		pred, health, err := o.Step(v)
		if err != nil {
			if errors.Is(err, larpredictor.ErrNotReady) {
				continue // still warming up
			}
			t.Fatal(err)
		}
		forecasts++
		if pred.Source != larpredictor.SourceLAR {
			t.Fatalf("source %s on a clean stream", pred.Source)
		}
		if health != larpredictor.Healthy {
			t.Fatalf("health %s on a clean stream", health)
		}
	}
	if forecasts == 0 {
		t.Fatal("Step never produced a forecast")
	}
	if o.HealthStats().State != larpredictor.Healthy {
		t.Errorf("end state %s", o.HealthStats().State)
	}
}
