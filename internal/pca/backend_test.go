package pca

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func randomRows(rng *rand.Rand, n, d int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64() * float64(1+j)
		}
	}
	return rows
}

func TestPowerBackendMatchesJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rows := randomRows(rng, 200, 6)

	jac, err := FitBackend(rows, FixedComponents(2), JacobiBackend)
	if err != nil {
		t.Fatal(err)
	}
	pow, err := FitBackend(rows, FixedComponents(2), PowerIterationBackend)
	if err != nil {
		t.Fatal(err)
	}
	if pow.Components() != 2 || pow.InputDim() != 6 {
		t.Fatalf("power kept %d of %d dimensions", pow.Components(), pow.InputDim())
	}
	// Same leading eigenvalues.
	js, err := jac.State()
	if err != nil {
		t.Fatal(err)
	}
	ps, err := pow.State()
	if err != nil {
		t.Fatal(err)
	}
	je, pe := js.Eigenvalues, ps.Eigenvalues
	for i := 0; i < 2; i++ {
		if math.Abs(je[i]-pe[i]) > 1e-6*(1+je[i]) {
			t.Errorf("eigenvalue %d: jacobi %g power %g", i, je[i], pe[i])
		}
	}
	// Same projections up to sign (the sign convention should make them
	// exactly equal, but allow per-component flips for robustness).
	for trial := 0; trial < 10; trial++ {
		q := make([]float64, 6)
		for j := range q {
			q[j] = rng.NormFloat64()
		}
		a, err := jac.Transform(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := pow.Transform(q)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 2; c++ {
			if math.Abs(a[c]-b[c]) > 1e-5*(1+math.Abs(a[c])) &&
				math.Abs(a[c]+b[c]) > 1e-5*(1+math.Abs(a[c])) {
				t.Fatalf("projection mismatch: %v vs %v", a, b)
			}
		}
	}
	// Total variance agrees, so with the leading eigenvalues checked above
	// the explained-variance fraction does too.
	if math.Abs(jac.totVar-pow.totVar) > 1e-9*(1+jac.totVar) {
		t.Errorf("total variance: jacobi %g power %g", jac.totVar, pow.totVar)
	}
}

func TestPowerBackendRejectsMinVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rows := randomRows(rng, 50, 4)
	if _, err := FitBackend(rows, MinVariance(0.9), PowerIterationBackend); !errors.Is(err, ErrBadInput) {
		t.Errorf("err = %v, want ErrBadInput", err)
	}
}

func TestPowerBackendZeroVariance(t *testing.T) {
	rows := [][]float64{{3, 3}, {3, 3}, {3, 3}}
	p, err := FitBackend(rows, FixedComponents(1), PowerIterationBackend)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := p.Transform([]float64{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if proj[0] != 0 {
		t.Errorf("degenerate projection = %v", proj)
	}
	if p.totVar != 0 {
		t.Errorf("degenerate total variance = %g, want 0", p.totVar)
	}
}
