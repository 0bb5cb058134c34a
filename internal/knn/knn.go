// Package knn implements the k-Nearest-Neighbor classifier the LARPredictor
// uses to forecast the best predictor for a workload window (paper §5.1):
// memory-based training (the training phase "is simply to index the N
// training data"), Euclidean distance, and majority vote over the k = 3
// nearest neighbors' class labels.
//
// Two neighbor-search backends are provided: a brute-force linear scan
// (O(N) per query, the paper's quicksort-selection approach) and a k-d tree
// (the Friedman–Bentley–Finkel logarithmic-expected-time algorithm the paper
// cites as a fast alternative). Both return identical neighbor sets; the
// ablation bench compares their throughput.
package knn

import (
	"errors"
	"fmt"
	"sort"
)

// ErrBadInput is returned for invalid construction or query arguments.
var ErrBadInput = errors.New("knn: invalid input")

// Neighbor is one result of a nearest-neighbor query.
type Neighbor struct {
	// Index is the position of the neighbor in the training set.
	Index int
	// Label is the neighbor's class label.
	Label int
	// Distance is the Euclidean distance to the query point.
	Distance float64
}

// Searcher finds the k nearest training points to a query.
type Searcher interface {
	// Nearest returns the k nearest neighbors of q, ordered by ascending
	// distance with index as the tiebreaker (deterministic across backends).
	// It returns fewer than k neighbors only when the training set is
	// smaller than k.
	Nearest(q []float64, k int) ([]Neighbor, error)
	// NearestInto is Nearest writing into buf (which must have length 0;
	// its capacity is reused when sufficient), for allocation-free queries.
	NearestInto(q []float64, k int, buf []Neighbor) ([]Neighbor, error)
	// Len returns the number of indexed training points.
	Len() int
}

// Classifier is a k-NN classifier over labeled training points. It is
// immutable after construction and safe for concurrent use.
type Classifier struct {
	search Searcher
	train  trainingSet
	k      int
	vote   VoteStrategy
	// numClasses is 1 + the maximum label seen, used for vote counting.
	numClasses int
}

// Config controls classifier construction.
type Config struct {
	// K is the number of neighbors to vote (odd per the paper; 3 in the
	// reference implementation). Defaults to 3 when zero.
	K int
	// UseKDTree selects the k-d tree backend instead of brute force.
	UseKDTree bool
	// Vote selects the combination strategy; the zero value is the paper's
	// majority vote.
	Vote VoteStrategy
}

// NewClassifier indexes the training points (one row per point, all rows the
// same dimension) with their class labels. Labels must be non-negative.
func NewClassifier(points [][]float64, labels []int, cfg Config) (*Classifier, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("knn: no training points: %w", ErrBadInput)
	}
	if len(points) != len(labels) {
		return nil, fmt.Errorf("knn: %d points but %d labels: %w", len(points), len(labels), ErrBadInput)
	}
	dim := len(points[0])
	if dim == 0 {
		return nil, fmt.Errorf("knn: zero-dimensional points: %w", ErrBadInput)
	}
	maxLabel := 0
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("knn: point %d has dimension %d, want %d: %w", i, len(p), dim, ErrBadInput)
		}
		if labels[i] < 0 {
			return nil, fmt.Errorf("knn: negative label %d at point %d: %w", labels[i], i, ErrBadInput)
		}
		if labels[i] > maxLabel {
			maxLabel = labels[i]
		}
	}
	k := cfg.K
	if k == 0 {
		k = 3
	}
	if k < 1 {
		return nil, fmt.Errorf("knn: k = %d < 1: %w", k, ErrBadInput)
	}

	train := newTrainingSet(points, labels)
	var s Searcher
	if cfg.UseKDTree {
		s = newKDTree(train)
	} else {
		s = newBruteForce(train)
	}
	return &Classifier{search: s, train: train, k: k, vote: cfg.Vote, numClasses: maxLabel + 1}, nil
}

// trainingSet is the indexed training data, copied at construction. The
// points sit in one contiguous slice — point i is coords[i*dim:(i+1)*dim] —
// so N points cost two allocations instead of N+2.
type trainingSet struct {
	coords []float64
	dim    int
	labels []int
}

// newTrainingSet copies points and labels; NewClassifier has checked that
// there is at least one point and that all share one dimension.
func newTrainingSet(points [][]float64, labels []int) trainingSet {
	dim := len(points[0])
	coords := make([]float64, 0, len(points)*dim)
	for _, p := range points {
		coords = append(coords, p...)
	}
	return trainingSet{coords: coords, dim: dim, labels: append([]int(nil), labels...)}
}

func (s *trainingSet) Len() int { return len(s.labels) }

// point returns training point i (a view; callers must not modify it).
func (s *trainingSet) point(i int) []float64 {
	return s.coords[i*s.dim : (i+1)*s.dim]
}

// sqDist returns the squared Euclidean distance from q (of length dim) to
// point i, the comparison key of the search loops: it skips the square root
// and keeps the ordering.
func (s *trainingSet) sqDist(q []float64, i int) float64 {
	p := s.point(i)
	var d float64
	for j, x := range q {
		t := x - p[j]
		d += t * t
	}
	return d
}

// Points returns a copy of the training points, in index order.
func (c *Classifier) Points() [][]float64 {
	coords := append([]float64(nil), c.train.coords...)
	dim := c.train.dim
	out := make([][]float64, c.train.Len())
	for i := range out {
		out[i] = coords[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return out
}

// Labels returns a copy of the training labels, in index order.
func (c *Classifier) Labels() []int {
	return append([]int(nil), c.train.labels...)
}

// K returns the configured neighbor count.
func (c *Classifier) K() int { return c.k }

// Len returns the number of indexed training points.
func (c *Classifier) Len() int { return c.search.Len() }

// Classify returns the majority-vote label among the k nearest neighbors of
// q. Vote ties break toward the class whose nearest member is closest to the
// query, then toward the lower class index — both deterministic.
func (c *Classifier) Classify(q []float64) (int, error) {
	label, _, err := c.ClassifyNeighbors(q)
	return label, err
}

// Scratch holds the per-query working buffers of a classification —
// neighbor candidates and vote tallies — so steady-state callers can
// classify without allocating. The zero value is ready to use; buffers grow
// on first use and are reused afterwards. A Scratch must not be shared
// between concurrent queries.
type Scratch struct {
	cand    []Neighbor
	votes   []int
	closest []float64
	weights []float64
}

// ClassifyScratch is Classify using s's reusable buffers. After the first
// call with a given Scratch the query path performs no heap allocations.
func (c *Classifier) ClassifyScratch(q []float64, s *Scratch) (int, error) {
	if s == nil {
		return c.Classify(q)
	}
	if cap(s.cand) < c.k {
		s.cand = make([]Neighbor, 0, c.k)
	}
	nbrs, err := c.search.NearestInto(q, c.k, s.cand[:0])
	if err != nil {
		return 0, err
	}
	s.cand = nbrs
	if len(nbrs) == 0 {
		return 0, fmt.Errorf("knn: empty neighbor set: %w", ErrBadInput)
	}
	return voteScratch(nbrs, c.numClasses, c.vote, s), nil
}

// ClassifyNeighbors is Classify but additionally returns the neighbor set
// that produced the vote, for callers that want to inspect or log it.
func (c *Classifier) ClassifyNeighbors(q []float64) (int, []Neighbor, error) {
	nbrs, err := c.search.Nearest(q, c.k)
	if err != nil {
		return 0, nil, err
	}
	if len(nbrs) == 0 {
		return 0, nil, fmt.Errorf("knn: empty neighbor set: %w", ErrBadInput)
	}
	return vote(nbrs, c.numClasses, c.vote), nbrs, nil
}

// bruteForce is the linear-scan searcher.
type bruteForce struct {
	trainingSet
}

func newBruteForce(train trainingSet) *bruteForce {
	return &bruteForce{train}
}

func (b *bruteForce) Nearest(q []float64, k int) ([]Neighbor, error) {
	return b.NearestInto(q, k, nil)
}

func (b *bruteForce) NearestInto(q []float64, k int, buf []Neighbor) ([]Neighbor, error) {
	if len(q) != b.dim {
		return nil, fmt.Errorf("knn: query dimension %d, index dimension %d: %w",
			len(q), b.dim, ErrBadInput)
	}
	if k < 1 {
		return nil, fmt.Errorf("knn: k = %d < 1: %w", k, ErrBadInput)
	}
	if k > b.Len() {
		k = b.Len()
	}
	// Maintain a small sorted candidate list; k is tiny (3 in the paper) so
	// insertion into a k-slot array beats a heap.
	cand := buf
	if cap(cand) < k {
		cand = make([]Neighbor, 0, k)
	}
	cand = cand[:0]
	for i := range b.labels {
		d := b.sqDist(q, i)
		if len(cand) == k && !lessNeighbor(d, i, cand[k-1]) {
			continue
		}
		n := Neighbor{Index: i, Label: b.labels[i], Distance: d}
		pos := sort.Search(len(cand), func(j int) bool {
			return lessNeighbor(d, i, cand[j])
		})
		if len(cand) < k {
			cand = append(cand, Neighbor{})
		}
		copy(cand[pos+1:], cand[pos:])
		cand[pos] = n
	}
	finishDistances(cand)
	return cand, nil
}

// lessNeighbor orders candidate (dist d, index i) before existing neighbor n.
// Distances here are squared; ordering is preserved.
func lessNeighbor(d float64, i int, n Neighbor) bool {
	if d != n.Distance {
		return d < n.Distance
	}
	return i < n.Index
}

// finishDistances converts the squared distances accumulated during search
// into true Euclidean distances.
func finishDistances(ns []Neighbor) {
	for i := range ns {
		ns[i].Distance = sqrt(ns[i].Distance)
	}
}
