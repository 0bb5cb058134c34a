// custompool shows how to extend the LARPredictor with a user-defined
// expert. The paper's §8 proposes exactly this: "We plan to incorporate more
// prediction models ... into the predictor pool to leverage their prediction
// power for different type of workload." Here we add a damped-trend expert
// alongside the built-in extended pool and let the classifier decide when it
// helps.
package main

import (
	"fmt"
	"log"

	larpredictor "github.com/acis-lab/larpredictor"
)

// DampedTrend predicts by extrapolating the average step of the trailing
// window, damped toward zero — a compromise between LAST and full linear
// extrapolation that behaves well on noisy ramps.
type DampedTrend struct {
	Damping float64 // 0..1, fraction of the mean step applied
}

// Name implements larpredictor.Predictor.
func (DampedTrend) Name() string { return "DAMPED_TREND" }

// Order implements larpredictor.Predictor.
func (DampedTrend) Order() int { return 3 }

// Fit implements larpredictor.Predictor; the damping is fixed.
func (DampedTrend) Fit([]float64) error { return nil }

// Predict implements larpredictor.Predictor.
func (d DampedTrend) Predict(w []float64) (float64, error) {
	if len(w) < 3 {
		return 0, larpredictor.ErrWindowTooShort
	}
	tail := w[len(w)-3:]
	meanStep := (tail[2] - tail[0]) / 2
	return tail[2] + d.Damping*meanStep, nil
}

func main() {
	// Register the expert so it can also be constructed by name.
	larpredictor.RegisterPredictor("DAMPED_TREND", func() larpredictor.Predictor {
		return DampedTrend{Damping: 0.6}
	})

	const window = 5
	paper, err := larpredictor.BuildPool(window, larpredictor.TierPaper)
	if err != nil {
		log.Fatal(err)
	}
	damped, err := larpredictor.BuildPool(window, larpredictor.TierPaper, DampedTrend{Damping: 0.6})
	if err != nil {
		log.Fatal(err)
	}
	pools := map[string]*larpredictor.Pool{
		"paper pool (3 experts)":   paper,
		"paper pool + DampedTrend": damped,
	}

	traces := larpredictor.StandardTraceSet(17)
	series, err := traces.Get("VM4", "NIC1_received")
	if err != nil {
		log.Fatal(err)
	}
	vals := series.Values
	half := len(vals) / 2

	fmt.Printf("trace %s, %d samples\n\n", series.Name, len(vals))
	for name, pool := range pools {
		cfg := larpredictor.DefaultConfig(window)
		cfg.Pool = pool
		p, err := larpredictor.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if err := p.Train(vals[:half]); err != nil {
			log.Fatal(err)
		}
		res, err := p.Evaluate(vals[half:])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n  LAR MSE %.4f (oracle %.4f, accuracy %.1f%%)\n",
			name, res.LARMSE, res.OracleMSE, 100*res.ForecastAccuracy)
		// How often was each expert selected?
		counts := make([]int, pool.Size())
		for _, sel := range res.Selected {
			counts[sel]++
		}
		for i, n := range pool.Names() {
			fmt.Printf("  %-14s selected %3d times (MSE alone %.4f)\n", n, counts[i], res.ExpertMSE[i])
		}
		fmt.Println()
	}
}
