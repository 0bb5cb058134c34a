package pca

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// correlatedRows builds rows whose variance is concentrated along a known
// direction: row = t·dir + small noise.
func correlatedRows(rng *rand.Rand, n, d int, dir []float64) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		t := rng.NormFloat64() * 10
		row := make([]float64, d)
		for j := range row {
			row[j] = t*dir[j] + 0.01*rng.NormFloat64()
		}
		rows[i] = row
	}
	return rows
}

func TestFitRecoversDominantDirection(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dir := []float64{3.0 / 5, 4.0 / 5} // unit vector
	rows := correlatedRows(rng, 200, 2, dir)
	p, err := Fit(rows, FixedComponents(1))
	if err != nil {
		t.Fatal(err)
	}
	if p.Components() != 1 {
		t.Fatalf("kept %d components", p.Components())
	}
	// First eigenvector ≈ ±dir. The sign convention makes the largest
	// component positive, so it should be +dir.
	v0, err := p.Transform([]float64{dir[0], dir[1]})
	if err != nil {
		t.Fatal(err)
	}
	// Projection of a unit step along dir onto the first component must be
	// ±1 relative to the mean; check magnitude via two points.
	a, _ := p.Transform([]float64{0, 0})
	if !almostEqual(math.Abs(v0[0]-a[0]), 1, 0.01) {
		t.Errorf("unit step along dominant direction projects to %g, want ±1", v0[0]-a[0])
	}
	if f := p.eigvals[0] / p.totVar; f < 0.999 {
		t.Errorf("explained variance = %g, want ~1", f)
	}
}

func TestMinVarianceSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Two strong directions, one weak.
	rows := make([][]float64, 300)
	for i := range rows {
		a, b, c := rng.NormFloat64()*10, rng.NormFloat64()*5, rng.NormFloat64()*0.01
		rows[i] = []float64{a, b, c}
	}
	p, err := Fit(rows, MinVariance(0.99))
	if err != nil {
		t.Fatal(err)
	}
	if p.Components() != 2 {
		t.Errorf("kept %d components, want 2 for 99%% variance", p.Components())
	}
	pAll, err := Fit(rows, MinVariance(1.0))
	if err != nil {
		t.Fatal(err)
	}
	if pAll.Components() != 3 {
		t.Errorf("kept %d components, want 3 for 100%% variance", pAll.Components())
	}
}

func TestMinVarianceBadFraction(t *testing.T) {
	rows := [][]float64{{1, 2}, {3, 4}}
	for _, f := range []float64{0, -1, 1.5} {
		if _, err := Fit(rows, MinVariance(f)); !errors.Is(err, ErrBadInput) {
			t.Errorf("fraction %g: err = %v, want ErrBadInput", f, err)
		}
	}
}

func TestFixedComponentsClamped(t *testing.T) {
	rows := [][]float64{{1, 2}, {3, 4}, {5, 7}}
	p, err := Fit(rows, FixedComponents(10))
	if err != nil {
		t.Fatal(err)
	}
	if p.Components() != 2 {
		t.Errorf("kept %d, want clamped to 2", p.Components())
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit([][]float64{{1, 2}}, FixedComponents(1)); !errors.Is(err, ErrBadInput) {
		t.Error("accepted single row")
	}
	if _, err := Fit([][]float64{{1, 2}, {3}}, FixedComponents(1)); err == nil {
		t.Error("accepted ragged rows")
	}
	if _, err := Fit(nil, FixedComponents(1)); err == nil {
		t.Error("accepted nil rows")
	}
}

func TestTransformErrors(t *testing.T) {
	var p PCA
	if _, err := p.Transform([]float64{1}); !errors.Is(err, ErrNotFitted) {
		t.Error("unfitted Transform did not error")
	}
	fittedP, err := Fit([][]float64{{1, 2}, {2, 1}, {0, 0}}, FixedComponents(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fittedP.Transform([]float64{1}); !errors.Is(err, ErrBadInput) {
		t.Error("wrong-dimension Transform did not error")
	}
}

func TestTransformAll(t *testing.T) {
	rows := [][]float64{{1, 0}, {0, 1}, {1, 1}, {0, 0}}
	p, err := Fit(rows, FixedComponents(2))
	if err != nil {
		t.Fatal(err)
	}
	proj, err := p.TransformAll(rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(proj) != 4 || len(proj[0]) != 2 {
		t.Fatalf("projected shape %dx%d", len(proj), len(proj[0]))
	}
	if _, err := p.TransformAll([][]float64{{1}}); err == nil {
		t.Error("TransformAll accepted bad row")
	}
}

func TestFullRankRoundTrip(t *testing.T) {
	// Keeping all components makes Transform lossless: µ + V·λ rebuilds the
	// input (paper Eq. 7).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(6)
		n := d + 2 + rng.Intn(20)
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, d)
			for j := range rows[i] {
				rows[i][j] = rng.NormFloat64() * 10
			}
		}
		p, err := Fit(rows, FixedComponents(d))
		if err != nil {
			return false
		}
		for _, r := range rows {
			proj, err := p.Transform(r)
			if err != nil {
				return false
			}
			back := append([]float64(nil), p.mean...)
			for c, lambda := range proj {
				for j := range back {
					back[j] += lambda * p.comps.At(j, c)
				}
			}
			for j := range r {
				if !almostEqual(back[j], r[j], 1e-6*(1+math.Abs(r[j]))) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestProjectionPreservesVarianceOrdering(t *testing.T) {
	// Variance of the first projected coordinate >= variance of the second.
	rng := rand.New(rand.NewSource(9))
	rows := make([][]float64, 500)
	for i := range rows {
		rows[i] = []float64{rng.NormFloat64() * 7, rng.NormFloat64() * 3, rng.NormFloat64()}
	}
	p, err := Fit(rows, FixedComponents(2))
	if err != nil {
		t.Fatal(err)
	}
	proj, err := p.TransformAll(rows)
	if err != nil {
		t.Fatal(err)
	}
	var m0, m1 float64
	for _, r := range proj {
		m0 += r[0]
		m1 += r[1]
	}
	m0 /= float64(len(proj))
	m1 /= float64(len(proj))
	var v0, v1 float64
	for _, r := range proj {
		v0 += (r[0] - m0) * (r[0] - m0)
		v1 += (r[1] - m1) * (r[1] - m1)
	}
	if v0 < v1 {
		t.Errorf("component variances out of order: %g < %g", v0, v1)
	}
}

func TestZeroVarianceTrainingData(t *testing.T) {
	rows := [][]float64{{2, 2}, {2, 2}, {2, 2}}
	p, err := Fit(rows, MinVariance(0.9))
	if err != nil {
		t.Fatal(err)
	}
	proj, err := p.Transform([]float64{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range proj {
		if v != 0 {
			t.Errorf("zero-variance projection = %v, want zeros", proj)
		}
	}
	if p.totVar != 0 {
		t.Errorf("degenerate total variance = %g, want 0", p.totVar)
	}
}
