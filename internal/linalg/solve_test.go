package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveKnown(t *testing.T) {
	a := mustFromRows(t, [][]float64{{2, 1}, {1, 3}})
	x, err := Solve(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	// 2x + y = 5, x + 3y = 10 → x = 1, y = 3.
	if !almostEqual(x[0], 1, 1e-10) || !almostEqual(x[1], 3, 1e-10) {
		t.Fatalf("Solve = %v, want [1 3]", x)
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Zero leading pivot forces a row swap.
	a := mustFromRows(t, [][]float64{{0, 1}, {1, 0}})
	x, err := Solve(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 3, 1e-12) || !almostEqual(x[1], 2, 1e-12) {
		t.Fatalf("Solve = %v, want [3 2]", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestSolveShapeErrors(t *testing.T) {
	if _, err := Solve(NewMatrix(2, 3), []float64{1, 2}); !errors.Is(err, ErrDimension) {
		t.Fatal("Solve accepted non-square matrix")
	}
	if _, err := Solve(Identity(2), []float64{1}); !errors.Is(err, ErrDimension) {
		t.Fatal("Solve accepted wrong-length rhs")
	}
}

func TestSolveResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			a.Set(i, i, a.At(i, i)+float64(n)) // diagonal dominance → well-conditioned
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64() * 10
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		ax, err := a.MulVec(x)
		if err != nil {
			return false
		}
		for i := range b {
			if !almostEqual(ax[i], b[i], 1e-8*(1+math.Abs(b[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSolveDoesNotMutate(t *testing.T) {
	a := mustFromRows(t, [][]float64{{0, 1}, {1, 0}})
	b := []float64{2, 3}
	orig := a.Clone()
	if _, err := Solve(a, b); err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != orig.At(0, 0) || a.At(0, 1) != orig.At(0, 1) {
		t.Error("Solve mutated matrix input")
	}
	if b[0] != 2 || b[1] != 3 {
		t.Error("Solve mutated rhs input")
	}
}

func TestLevinsonDurbinKnownAR1(t *testing.T) {
	// AR(1) with phi = 0.7 and unit innovation variance has autocovariance
	// r[k] = sigma² phi^k / (1 - phi²).
	phi := 0.7
	r0 := 1 / (1 - phi*phi)
	r := []float64{r0, phi * r0}
	coef, v, err := LevinsonDurbin(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(coef) != 1 || !almostEqual(coef[0], phi, 1e-10) {
		t.Fatalf("phi = %v, want [0.7]", coef)
	}
	if !almostEqual(v, 1, 1e-10) {
		t.Fatalf("variance = %g, want 1", v)
	}
}

func TestLevinsonDurbinMatchesDirectSolve(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(8)
		// Build a valid autocovariance sequence from a random spectral mass:
		// r[k] = Σ w_i cos(k θ_i) with w_i > 0 is positive definite.
		nComp := 1 + rng.Intn(4)
		ws := make([]float64, nComp)
		thetas := make([]float64, nComp)
		for i := range ws {
			ws[i] = 0.1 + rng.Float64()
			thetas[i] = rng.Float64() * math.Pi
		}
		r := make([]float64, p+1)
		for k := 0; k <= p; k++ {
			for i := range ws {
				r[k] += ws[i] * math.Cos(float64(k)*thetas[i])
			}
		}
		r[0] += 0.5 // strengthen the diagonal

		coef, _, err := LevinsonDurbin(r)
		if err != nil {
			return false
		}
		toep, err := ToeplitzFromAutocov(r, p)
		if err != nil {
			return false
		}
		direct, err := Solve(toep, r[1:p+1])
		if err != nil {
			return false
		}
		for i := range coef {
			if !almostEqual(coef[i], direct[i], 1e-6*(1+math.Abs(direct[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLevinsonDurbinErrors(t *testing.T) {
	if _, _, err := LevinsonDurbin([]float64{1}); !errors.Is(err, ErrDimension) {
		t.Error("accepted too-short autocovariance")
	}
	if _, _, err := LevinsonDurbin([]float64{0, 0.5}); !errors.Is(err, ErrSingular) {
		t.Error("accepted non-positive zero-lag autocovariance")
	}
}

// ToeplitzFromAutocov builds the p×p symmetric Toeplitz matrix whose (i,j)
// entry is r[|i-j|], so tests can cross-check LevinsonDurbin against the
// general Solve path.
func ToeplitzFromAutocov(r []float64, p int) (*Matrix, error) {
	if p < 1 || len(r) < p {
		return nil, fmt.Errorf("linalg: ToeplitzFromAutocov needs %d autocovariances, have %d: %w", p, len(r), ErrDimension)
	}
	m := NewMatrix(p, p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			d := i - j
			if d < 0 {
				d = -d
			}
			m.Set(i, j, r[d])
		}
	}
	return m, nil
}

func TestToeplitzFromAutocov(t *testing.T) {
	m, err := ToeplitzFromAutocov([]float64{3, 2, 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{3, 2, 1}, {2, 3, 2}, {1, 2, 3}}
	for i := range want {
		for j := range want[i] {
			if m.At(i, j) != want[i][j] {
				t.Fatalf("Toeplitz[%d][%d] = %g, want %g", i, j, m.At(i, j), want[i][j])
			}
		}
	}
	if _, err := ToeplitzFromAutocov([]float64{1}, 3); !errors.Is(err, ErrDimension) {
		t.Error("Toeplitz accepted short autocovariance")
	}
}
