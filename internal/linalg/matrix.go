package linalg

import (
	"fmt"
	"strings"
)

// Matrix is a dense row-major matrix of float64.
//
// The zero value is an empty 0x0 matrix. Use NewMatrix to build one.
// Methods that return a Matrix allocate fresh storage.
type Matrix struct {
	rows, cols int
	data       []float64 // len == rows*cols, row-major
}

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: NewMatrix negative dimension %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.boundsCheck(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.boundsCheck(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) boundsCheck(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Row returns a view (not a copy) of row i. Mutating the returned slice
// mutates the matrix.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("linalg: row %d out of range for %dx%d matrix", i, m.rows, m.cols))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: col %d out of range for %dx%d matrix", j, m.rows, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			t.data[j*t.cols+i] = v
		}
	}
	return t
}

// Mul returns the matrix product m·b.
func (m *Matrix) Mul(b *Matrix) (*Matrix, error) {
	if m.cols != b.rows {
		return nil, fmt.Errorf("linalg: Mul %dx%d by %dx%d: %w", m.rows, m.cols, b.rows, b.cols, ErrDimension)
	}
	out := NewMatrix(m.rows, b.cols)
	// ikj loop order: stream through b's rows for locality.
	for i := 0; i < m.rows; i++ {
		arow := m.data[i*m.cols : (i+1)*m.cols]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for k, aik := range arow {
			if aik == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bkj := range brow {
				orow[j] += aik * bkj
			}
		}
	}
	return out, nil
}

// MulVec returns the matrix-vector product m·x.
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	if m.cols != len(x) {
		return nil, fmt.Errorf("linalg: MulVec %dx%d by vector of %d: %w", m.rows, m.cols, len(x), ErrDimension)
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = Dot(m.data[i*m.cols:(i+1)*m.cols], x)
	}
	return out, nil
}

// IsSymmetric reports whether m is square and symmetric within tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			d := m.data[i*m.cols+j] - m.data[j*m.cols+i]
			if d < -tol || d > tol {
				return false
			}
		}
	}
	return true
}

// RowCovariance returns the column means and the sample covariance matrix
// (unbiased 1/(n-1)) of equal-length rows, reading the rows in place rather
// than copying them into a matrix. It requires at least two rows.
func RowCovariance(rows [][]float64) ([]float64, *Matrix, error) {
	if len(rows) < 2 {
		return nil, nil, fmt.Errorf("linalg: covariance needs >= 2 rows, have %d: %w", len(rows), ErrDimension)
	}
	cols := len(rows[0])
	for i, r := range rows {
		if len(r) != cols {
			return nil, nil, fmt.Errorf("linalg: covariance of ragged rows: row %d has %d cols, want %d: %w",
				i, len(r), cols, ErrDimension)
		}
	}
	means := columnMeans(rows, cols)
	cov := NewMatrix(cols, cols)
	for _, row := range rows {
		for i := 0; i < cols; i++ {
			di := row[i] - means[i]
			if di == 0 {
				continue
			}
			crow := cov.data[i*cols:]
			for j := i; j < cols; j++ {
				crow[j] += di * (row[j] - means[j])
			}
		}
	}
	inv := 1 / float64(len(rows)-1)
	for i := 0; i < cols; i++ {
		for j := i; j < cols; j++ {
			v := cov.data[i*cols+j] * inv
			cov.data[i*cols+j] = v
			cov.data[j*cols+i] = v
		}
	}
	return means, cov, nil
}

// columnMeans returns the mean of each of cols columns over rows (zeros for
// no rows).
func columnMeans(rows [][]float64, cols int) []float64 {
	means := make([]float64, cols)
	if len(rows) == 0 {
		return means
	}
	for _, row := range rows {
		for j, v := range row {
			means[j] += v
		}
	}
	inv := 1 / float64(len(rows))
	for j := range means {
		means[j] *= inv
	}
	return means
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%dx%d[", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			b.WriteString("; ")
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.6g", m.data[i*m.cols+j])
		}
	}
	b.WriteByte(']')
	return b.String()
}
