package knn

import (
	"fmt"
	"math"
	"sort"
)

func sqrt(x float64) float64 { return math.Sqrt(x) }

// kdTree is a k-d tree searcher implementing the Friedman–Bentley–Finkel
// best-match algorithm (paper reference [13]): median splits on the axis of
// maximum spread, branch-and-bound descent with a bounded candidate list.
type kdTree struct {
	trainingSet
	root *kdNode
}

type kdNode struct {
	// index into points for leaf entries; internal nodes also store a point
	// (the median), as in the classic formulation.
	index       int
	axis        int
	left, right *kdNode
}

func newKDTree(train trainingSet) *kdTree {
	t := &kdTree{trainingSet: train}
	idx := make([]int, t.Len())
	for i := range idx {
		idx[i] = i
	}
	t.root = t.build(idx)
	return t
}

// build recursively constructs the tree over the point indexes in idx.
func (t *kdTree) build(idx []int) *kdNode {
	if len(idx) == 0 {
		return nil
	}
	axis := t.widestAxis(idx)
	// Median split: sort indexes along the axis (index tiebreak keeps the
	// build deterministic for duplicate coordinates).
	sort.Slice(idx, func(a, b int) bool {
		va, vb := t.point(idx[a])[axis], t.point(idx[b])[axis]
		if va != vb {
			return va < vb
		}
		return idx[a] < idx[b]
	})
	mid := len(idx) / 2
	n := &kdNode{index: idx[mid], axis: axis}
	n.left = t.build(idx[:mid])
	n.right = t.build(idx[mid+1:])
	return n
}

// widestAxis picks the coordinate with the largest spread over the subset,
// the FBF heuristic that keeps cells roughly cubical.
func (t *kdTree) widestAxis(idx []int) int {
	bestAxis, bestSpread := 0, -1.0
	for a := 0; a < t.dim; a++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, i := range idx {
			v := t.point(i)[a]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if s := hi - lo; s > bestSpread {
			bestAxis, bestSpread = a, s
		}
	}
	return bestAxis
}

func (t *kdTree) Nearest(q []float64, k int) ([]Neighbor, error) {
	return t.NearestInto(q, k, nil)
}

func (t *kdTree) NearestInto(q []float64, k int, buf []Neighbor) ([]Neighbor, error) {
	if len(q) != t.dim {
		return nil, fmt.Errorf("knn: query dimension %d, index dimension %d: %w", len(q), t.dim, ErrBadInput)
	}
	if k < 1 {
		return nil, fmt.Errorf("knn: k = %d < 1: %w", k, ErrBadInput)
	}
	if k > t.Len() {
		k = t.Len()
	}
	cand := buf
	if cap(cand) < k {
		cand = make([]Neighbor, 0, k)
	}
	cand = cand[:0]
	t.searchNode(t.root, q, k, &cand)
	finishDistances(cand)
	return cand, nil
}

// searchNode performs branch-and-bound descent, maintaining cand as the
// sorted current-best list (squared distances).
func (t *kdTree) searchNode(n *kdNode, q []float64, k int, cand *[]Neighbor) {
	if n == nil {
		return
	}
	d := t.sqDist(q, n.index)
	insertCandidate(cand, k, Neighbor{Index: n.index, Label: t.labels[n.index], Distance: d})

	diff := q[n.axis] - t.coords[n.index*t.dim+n.axis]
	near, far := n.left, n.right
	if diff > 0 {
		near, far = n.right, n.left
	}
	t.searchNode(near, q, k, cand)
	// Prune the far side unless the splitting plane is closer than the
	// current k-th best (or we do not yet have k candidates).
	if len(*cand) < k || diff*diff <= (*cand)[len(*cand)-1].Distance {
		t.searchNode(far, q, k, cand)
	}
}

// insertCandidate inserts n into the sorted bounded candidate list.
func insertCandidate(cand *[]Neighbor, k int, n Neighbor) {
	c := *cand
	if len(c) == k && !lessNeighbor(n.Distance, n.Index, c[k-1]) {
		return
	}
	pos := sort.Search(len(c), func(j int) bool {
		return lessNeighbor(n.Distance, n.Index, c[j])
	})
	if len(c) < k {
		c = append(c, Neighbor{})
	}
	copy(c[pos+1:], c[pos:])
	c[pos] = n
	*cand = c
}
