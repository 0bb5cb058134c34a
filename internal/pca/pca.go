// Package pca implements Principal Component Analysis for the LARPredictor's
// classification front end (paper §5.2): the prediction windows of size m are
// projected onto their first n principal components (n = 2 in the paper's
// implementation) before k-NN classification, cutting the cost of the
// distance computations and suppressing noise dimensions.
//
// The decomposition is computed from the covariance matrix of the training
// windows with the Jacobi eigensolver in internal/linalg. Components are
// selected either by a fixed count or by a minimum fraction of explained
// variance ("selects the principal components based on the predefined
// minimal fraction variance", paper §6).
package pca

import (
	"errors"
	"fmt"

	"github.com/acis-lab/larpredictor/internal/linalg"
)

// ErrNotFitted is returned when Transform is called before Fit.
var ErrNotFitted = errors.New("pca: not fitted")

// ErrBadInput is returned for invalid training data or configuration.
var ErrBadInput = errors.New("pca: invalid input")

// Selection controls how many components Fit keeps.
type Selection struct {
	// Components, when > 0, keeps exactly that many leading components
	// (clamped to the input dimension). The paper fixes this to 2.
	Components int
	// MinFractionVariance, used when Components == 0, keeps the smallest
	// number of leading components whose cumulative explained variance is
	// at least this fraction (0 < f <= 1).
	MinFractionVariance float64
}

// FixedComponents selects exactly n components.
func FixedComponents(n int) Selection { return Selection{Components: n} }

// MinVariance selects the fewest components explaining at least fraction f
// of the variance.
func MinVariance(f float64) Selection { return Selection{MinFractionVariance: f} }

// Backend selects the eigensolver.
type Backend int

const (
	// JacobiBackend computes the full spectrum with cyclic Jacobi — exact
	// and required for MinVariance selection.
	JacobiBackend Backend = iota
	// PowerIterationBackend computes only the leading components by
	// subspace iteration (the cheaper route the paper's §7.3 cites for
	// "finding only a few eigenvectors ... of a large matrix"). It
	// supports FixedComponents selection only.
	PowerIterationBackend
)

// PCA is a fitted principal component transform. The zero value is unfitted;
// use Fit. A fitted PCA is immutable and safe for concurrent use.
type PCA struct {
	fitted  bool
	mean    []float64      // column means of the training windows
	comps   *linalg.Matrix // d×k, eigenvectors as columns
	eigvals []float64      // known leading eigenvalues, descending
	totVar  float64        // trace of the covariance (total variance)
	kept    int
}

// Fit computes the principal components of the training rows (one window per
// row) with the Jacobi backend and keeps components per the selection rule.
// It needs at least two rows and one column.
func Fit(rows [][]float64, sel Selection) (*PCA, error) {
	return FitBackend(rows, sel, JacobiBackend)
}

// FitBackend is Fit with an explicit eigensolver backend. The power-
// iteration backend requires FixedComponents selection (it never computes
// the full spectrum a variance-fraction rule needs).
func FitBackend(rows [][]float64, sel Selection, backend Backend) (*PCA, error) {
	if len(rows) < 2 {
		return nil, fmt.Errorf("pca: need >= 2 training rows, have %d: %w", len(rows), ErrBadInput)
	}
	if len(rows[0]) < 1 {
		return nil, fmt.Errorf("pca: zero-dimensional rows: %w", ErrBadInput)
	}
	mean, cov, err := linalg.RowCovariance(rows)
	if err != nil {
		return nil, fmt.Errorf("pca: covariance: %w", err)
	}
	d := len(mean)
	var trace float64
	for i := 0; i < d; i++ {
		trace += cov.At(i, i)
	}

	var ed *linalg.EigenDecomposition
	switch backend {
	case PowerIterationBackend:
		if sel.Components < 1 {
			return nil, fmt.Errorf("pca: power-iteration backend requires FixedComponents selection: %w", ErrBadInput)
		}
		if trace <= 0 {
			// Degenerate zero-variance data: fall back to the exact solver,
			// which handles it uniformly.
			ed, err = linalg.SymEigen(cov)
		} else {
			ed, err = linalg.TopEigen(cov, sel.Components)
		}
	default:
		ed, err = linalg.SymEigen(cov)
	}
	if err != nil {
		return nil, fmt.Errorf("pca: eigendecomposition: %w", err)
	}

	k, err := chooseComponents(ed.Values, sel, d)
	if err != nil {
		return nil, err
	}
	if k > len(ed.Values) {
		k = len(ed.Values)
	}

	comps := linalg.NewMatrix(d, k)
	for r := 0; r < d; r++ {
		copy(comps.Row(r), ed.Vectors.Row(r)[:k])
	}
	return &PCA{
		fitted:  true,
		mean:    mean,
		comps:   comps,
		eigvals: ed.Values,
		totVar:  trace,
		kept:    k,
	}, nil
}

// chooseComponents applies the selection rule to the descending eigenvalue
// spectrum of a d-dimensional decomposition.
func chooseComponents(eigvals []float64, sel Selection, d int) (int, error) {
	if sel.Components > 0 {
		k := sel.Components
		if k > d {
			k = d
		}
		return k, nil
	}
	f := sel.MinFractionVariance
	if f <= 0 || f > 1 {
		return 0, fmt.Errorf("pca: min fraction variance %g outside (0,1]: %w", f, ErrBadInput)
	}
	var total float64
	for _, v := range eigvals {
		if v > 0 {
			total += v
		}
	}
	if total == 0 {
		// Zero-variance training data: a single component carries everything
		// (all projections will be 0, which is the right degenerate answer).
		return 1, nil
	}
	var cum float64
	for i, v := range eigvals {
		if v > 0 {
			cum += v
		}
		if cum/total >= f {
			return i + 1, nil
		}
	}
	return d, nil
}

// Components returns the number of components kept.
func (p *PCA) Components() int { return p.kept }

// InputDim returns the dimensionality the transform was fitted on.
func (p *PCA) InputDim() int { return len(p.mean) }

// Transform projects a single window onto the kept components.
func (p *PCA) Transform(row []float64) ([]float64, error) {
	return p.TransformInto(nil, row)
}

// TransformInto projects a single window onto the kept components, writing
// the projection into dst when its capacity suffices (allocating otherwise)
// and returning the slice holding the result. Centering is fused into the
// projection loop, so a sufficiently large dst makes the call allocation
// free; dst may be nil.
func (p *PCA) TransformInto(dst, row []float64) ([]float64, error) {
	if !p.fitted {
		return nil, ErrNotFitted
	}
	if len(row) != len(p.mean) {
		return nil, fmt.Errorf("pca: transform row of %d values, fitted on %d: %w",
			len(row), len(p.mean), ErrBadInput)
	}
	if cap(dst) < p.kept {
		dst = make([]float64, p.kept)
	}
	dst = dst[:p.kept]
	for c := 0; c < p.kept; c++ {
		var s float64
		for r := 0; r < len(row); r++ {
			s += p.comps.At(r, c) * (row[r] - p.mean[r])
		}
		dst[c] = s
	}
	return dst, nil
}

// TransformAll projects each row, returning a new slice of projected rows.
// The projections share one backing array, each row capped at its own end.
func (p *PCA) TransformAll(rows [][]float64) ([][]float64, error) {
	out := make([][]float64, len(rows))
	flat := make([]float64, len(rows)*p.kept)
	for i, r := range rows {
		t, err := p.TransformInto(flat[i*p.kept:(i+1)*p.kept:(i+1)*p.kept], r)
		if err != nil {
			return nil, fmt.Errorf("pca: row %d: %w", i, err)
		}
		out[i] = t
	}
	return out, nil
}
