package larpredictor_test

import (
	"fmt"

	larpredictor "github.com/acis-lab/larpredictor"
)

// Example demonstrates the basic train-then-forecast flow on a deterministic
// sawtooth series: the window preceding the forecast is rising, so the
// selected expert's forecast continues the local pattern.
func Example() {
	// A strictly periodic series: 0 1 2 3 0 1 2 3 ...
	history := make([]float64, 120)
	for i := range history {
		history[i] = float64(i % 4)
	}

	p, err := larpredictor.New(larpredictor.DefaultConfig(4))
	if err != nil {
		panic(err)
	}
	if err := p.Train(history); err != nil {
		panic(err)
	}
	pred, err := p.Forecast([]float64{0, 1, 2, 3})
	if err != nil {
		panic(err)
	}
	fmt.Printf("selected one of %d experts\n", p.Pool().Size())
	fmt.Printf("forecast is finite: %v\n", pred.Value == pred.Value)
	// Output:
	// selected one of 3 experts
	// forecast is finite: true
}

// ExampleNewPool shows how class labels follow pool order.
func ExampleNewPool() {
	pool, err := larpredictor.BuildPool(5, larpredictor.TierPaper)
	if err != nil {
		fmt.Println(err)
		return
	}
	for i, name := range pool.Names() {
		fmt.Printf("%d - %s\n", i+1, name)
	}
	// Output:
	// 1 - LAST
	// 2 - AR
	// 3 - SW_AVG
}

// ExampleFitNormalizer shows the train-coefficient reuse the paper's testing
// phase requires.
func ExampleFitNormalizer() {
	norm := larpredictor.FitNormalizer([]float64{2, 4, 6, 8})
	fmt.Printf("mean=%.0f\n", norm.Mean)
	fmt.Printf("z(5)=%.3f\n", norm.ApplyValue(5))
	fmt.Printf("round-trip=%.0f\n", norm.Invert(norm.ApplyValue(5)))
	// Output:
	// mean=5
	// z(5)=0.000
	// round-trip=5
}

// ExampleCrossCorrelation shows the multi-resource go/no-go diagnostic.
func ExampleCrossCorrelation() {
	// x leads z by one step exactly.
	x := []float64{1, -2, 3, -4, 5, -6, 7, -8}
	z := []float64{0, 1, -2, 3, -4, 5, -6, 7}
	rho, err := larpredictor.CrossCorrelation(z, x, 1)
	if err != nil {
		panic(err)
	}
	fmt.Printf("corr(z_t, x_t-1) > 0.9: %v\n", rho > 0.9)
	// Output:
	// corr(z_t, x_t-1) > 0.9: true
}
