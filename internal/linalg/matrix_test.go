package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// FromRows builds a matrix from a slice of equal-length rows. The data is
// copied. An empty input yields a 0x0 matrix.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return NewMatrix(0, 0), nil
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("linalg: FromRows ragged input: row %d has %d cols, want %d: %w",
				i, len(r), cols, ErrDimension)
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// ColumnMeans returns the mean of each column, the reference for
// RowCovariance's means. For a 0-row matrix it returns a zero vector.
func (m *Matrix) ColumnMeans() []float64 {
	means := make([]float64, m.cols)
	if m.rows == 0 {
		return means
	}
	for i := 0; i < m.rows; i++ {
		for j := range means {
			means[j] += m.At(i, j)
		}
	}
	inv := 1 / float64(m.rows)
	for j := range means {
		means[j] *= inv
	}
	return means
}

// Covariance returns the sample covariance matrix (cols×cols) of the rows of
// m with the unbiased 1/(n-1) normalization, computed element by element as
// the reference for RowCovariance. It requires at least two rows.
func (m *Matrix) Covariance() (*Matrix, error) {
	if m.rows < 2 {
		return nil, fmt.Errorf("linalg: covariance needs >= 2 rows, have %d: %w", m.rows, ErrDimension)
	}
	means := m.ColumnMeans()
	inv := 1 / float64(m.rows-1)
	cov := NewMatrix(m.cols, m.cols)
	for i := 0; i < m.cols; i++ {
		for j := 0; j < m.cols; j++ {
			var s float64
			for r := 0; r < m.rows; r++ {
				s += (m.At(r, i) - means[i]) * (m.At(r, j) - means[j])
			}
			cov.Set(i, j, s*inv)
		}
	}
	return cov, nil
}

func mustFromRows(t *testing.T, rows [][]float64) *Matrix {
	t.Helper()
	m, err := FromRows(rows)
	if err != nil {
		t.Fatalf("FromRows: %v", err)
	}
	return m
}

func TestFromRowsRagged(t *testing.T) {
	_, err := FromRows([][]float64{{1, 2}, {3}})
	if !errors.Is(err, ErrDimension) {
		t.Fatalf("ragged FromRows error = %v, want ErrDimension", err)
	}
}

func TestFromRowsEmpty(t *testing.T) {
	m, err := FromRows(nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 0 || m.Cols() != 0 {
		t.Fatalf("empty FromRows gave %dx%d", m.Rows(), m.Cols())
	}
}

func TestAtSetRowCol(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatal("Set/At roundtrip failed")
	}
	row := m.Row(1)
	row[0] = 5 // Row is a view
	if m.At(1, 0) != 5 {
		t.Error("Row should be a mutable view")
	}
	col := m.Col(0)
	col[0] = 42 // Col is a copy
	if m.At(0, 0) == 42 {
		t.Error("Col should be a copy")
	}
}

func TestIdentityMul(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1, 2}, {3, 4}})
	i2 := Identity(2)
	prod, err := a.Mul(i2)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		for c := 0; c < 2; c++ {
			if prod.At(r, c) != a.At(r, c) {
				t.Fatalf("A·I != A at (%d,%d)", r, c)
			}
		}
	}
}

func TestMulKnown(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1, 2, 3}, {4, 5, 6}})
	b := mustFromRows(t, [][]float64{{7, 8}, {9, 10}, {11, 12}})
	got, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{58, 64}, {139, 154}}
	for r := range want {
		for c := range want[r] {
			if got.At(r, c) != want[r][c] {
				t.Fatalf("Mul[%d][%d] = %g, want %g", r, c, got.At(r, c), want[r][c])
			}
		}
	}
}

func TestMulDimensionError(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	if _, err := a.Mul(b); !errors.Is(err, ErrDimension) {
		t.Fatalf("Mul shape error = %v, want ErrDimension", err)
	}
}

func TestMulVec(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1, 2}, {3, 4}})
	got, err := a.MulVec([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 || got[1] != 7 {
		t.Fatalf("MulVec = %v", got)
	}
	if _, err := a.MulVec([]float64{1}); !errors.Is(err, ErrDimension) {
		t.Fatal("MulVec accepted wrong-length vector")
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(6), 1+rng.Intn(6)
		m := NewMatrix(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(i, j, rng.NormFloat64())
			}
		}
		tt := m.T().T()
		if tt.Rows() != rows || tt.Cols() != cols {
			return false
		}
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if tt.At(i, j) != m.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestColumnMeans(t *testing.T) {
	m := mustFromRows(t, [][]float64{{1, 10}, {3, 20}})
	means := m.ColumnMeans()
	if means[0] != 2 || means[1] != 15 {
		t.Fatalf("ColumnMeans = %v", means)
	}
}

func TestCovarianceKnown(t *testing.T) {
	// Perfectly correlated columns: covariance matrix is rank 1.
	m := mustFromRows(t, [][]float64{{1, 2}, {2, 4}, {3, 6}})
	cov, err := m.Covariance()
	if err != nil {
		t.Fatal(err)
	}
	// var(col0) = 1, var(col1) = 4, cov = 2.
	if !almostEqual(cov.At(0, 0), 1, 1e-12) ||
		!almostEqual(cov.At(1, 1), 4, 1e-12) ||
		!almostEqual(cov.At(0, 1), 2, 1e-12) ||
		!almostEqual(cov.At(1, 0), 2, 1e-12) {
		t.Fatalf("Covariance = %v", cov)
	}
}

func TestCovarianceSymmetricPSDProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 2+rng.Intn(20), 1+rng.Intn(6)
		m := NewMatrix(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(i, j, rng.NormFloat64()*10)
			}
		}
		cov, err := m.Covariance()
		if err != nil {
			return false
		}
		if !cov.IsSymmetric(1e-9) {
			return false
		}
		// Positive semi-definite: xᵀCx >= 0 for random x.
		x := make([]float64, cols)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		cx, err := cov.MulVec(x)
		if err != nil {
			return false
		}
		return Dot(x, cx) >= -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCovarianceTooFewRows(t *testing.T) {
	m := NewMatrix(1, 3)
	if _, err := m.Covariance(); !errors.Is(err, ErrDimension) {
		t.Fatalf("Covariance on 1 row err = %v, want ErrDimension", err)
	}
}

// TestRowCovarianceMatchesMatrix checks that RowCovariance over row slices
// (here overlapping windows of one series, as PCA training passes them)
// returns exactly FromRows(rows).ColumnMeans() and .Covariance(), bit for bit.
func TestRowCovarianceMatchesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{2, 3, 55, 200} {
		for _, d := range []int{1, 2, 5, 16} {
			series := make([]float64, n+d)
			for i := 1; i < len(series); i++ {
				series[i] = 0.7*series[i-1] + rng.NormFloat64()
				if i%9 == 0 {
					series[i] = series[i-1] // exact zero deviations take the skip branch
				}
			}
			rows := make([][]float64, n)
			for i := range rows {
				rows[i] = series[i : i+d]
			}
			means, cov, err := RowCovariance(rows)
			if err != nil {
				t.Fatal(err)
			}
			m := mustFromRows(t, rows)
			wantCov, err := m.Covariance()
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range m.ColumnMeans() {
				if math.Float64bits(means[i]) != math.Float64bits(w) {
					t.Fatalf("n=%d d=%d: mean %d = %v, matrix %v", n, d, i, means[i], w)
				}
			}
			for i, w := range wantCov.data {
				if math.Float64bits(cov.data[i]) != math.Float64bits(w) {
					t.Fatalf("n=%d d=%d: covariance element %d = %v, matrix %v", n, d, i, cov.data[i], w)
				}
			}
		}
	}
	if _, _, err := RowCovariance([][]float64{{1, 2}}); !errors.Is(err, ErrDimension) {
		t.Errorf("one row: err = %v, want ErrDimension", err)
	}
	if _, _, err := RowCovariance([][]float64{{1, 2}, {3}}); !errors.Is(err, ErrDimension) {
		t.Errorf("ragged rows: err = %v, want ErrDimension", err)
	}
}

func TestIsSymmetric(t *testing.T) {
	sym := mustFromRows(t, [][]float64{{1, 2}, {2, 3}})
	if !sym.IsSymmetric(0) {
		t.Error("symmetric matrix reported asymmetric")
	}
	asym := mustFromRows(t, [][]float64{{1, 2}, {2.1, 3}})
	if asym.IsSymmetric(1e-3) {
		t.Error("asymmetric matrix reported symmetric")
	}
	rect := NewMatrix(2, 3)
	if rect.IsSymmetric(math.Inf(1)) {
		t.Error("rectangular matrix cannot be symmetric")
	}
}

func TestCloneMatrixIndependence(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1, 2}, {3, 4}})
	c := a.Clone()
	c.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Error("Clone shares storage")
	}
}

func TestStringSmoke(t *testing.T) {
	m := mustFromRows(t, [][]float64{{1, 2}})
	if s := m.String(); s == "" {
		t.Error("String returned empty")
	}
}
