package larpredictor_test

import (
	"math"
	"math/rand"
	"testing"

	larpredictor "github.com/acis-lab/larpredictor"
)

func TestFacadeFullPool(t *testing.T) {
	pool := buildPool(t, 6, larpredictor.TierFull)
	if pool.Size() != 10 {
		t.Fatalf("full pool size = %d, want 10", pool.Size())
	}
	names := pool.Names()
	found := map[string]bool{}
	for _, n := range names {
		found[n] = true
	}
	for _, want := range []string{"MA", "ARIMA", "LAST", "AR", "SW_AVG"} {
		if !found[want] {
			t.Errorf("full pool missing %s (have %v)", want, names)
		}
	}
	cfg := larpredictor.DefaultConfig(pool.MaxOrder())
	cfg.Pool = pool
	p, err := larpredictor.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Train(workload(t)); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeVoteStrategies(t *testing.T) {
	vals := workload(t)
	for _, v := range []larpredictor.VoteStrategy{
		larpredictor.MajorityVote, larpredictor.DistanceWeightedVote, larpredictor.ProbabilityVote,
	} {
		cfg := larpredictor.DefaultConfig(5)
		cfg.Vote = v
		p, err := larpredictor.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Train(vals[:144]); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Forecast(vals[139:144]); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
	}
}

func TestFacadeMultiResource(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 2000
	mem := make([]float64, n)
	cpu := make([]float64, n)
	for i := 1; i < n; i++ {
		mem[i] = 0.8*mem[i-1] + rng.NormFloat64()
		cpu[i] = 0.4*cpu[i-1] + 0.6*mem[i-1] + 0.5*rng.NormFloat64()
	}
	rho, err := larpredictor.CrossCorrelation(cpu, mem, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rho < 0.3 {
		t.Fatalf("cross-correlation = %g on coupled series", rho)
	}
	m := larpredictor.NewMultiResource(3, 3)
	if err := m.Fit(cpu[:n/2], mem[:n/2]); err != nil {
		t.Fatal(err)
	}
	pred, err := m.Predict(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(pred) {
		t.Fatal("NaN prediction")
	}
	if m.CrossGain() <= 0 {
		t.Error("no cross gain on coupled series")
	}
}

func TestFacadeDiagnostics(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	v := make([]float64, 3000)
	for i := 1; i < len(v); i++ {
		v[i] = 0.7*v[i-1] + rng.NormFloat64()
	}
	acf, err := larpredictor.ACF(v, 2)
	if err != nil || acf[0] != 1 {
		t.Fatalf("ACF = %v, err %v", acf, err)
	}
	pacf, err := larpredictor.PACF(v, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pacf[0]-0.7) > 0.1 {
		t.Errorf("PACF[1] = %g, want ~0.7", pacf[0])
	}
	_, autocorr, err := larpredictor.LjungBox(v, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !autocorr {
		t.Error("AR(1) process not flagged as autocorrelated")
	}
}
