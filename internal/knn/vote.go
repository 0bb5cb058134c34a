package knn

import (
	"fmt"
)

// VoteStrategy selects how the neighbor set is combined into a class
// decision. The paper uses plain majority voting (§5.1); its related work
// (§2, reference [16]) surveys "different combination strategies such as
// weighted voting and probability-based voting", which are provided here for
// the combination-strategy ablation.
type VoteStrategy int

const (
	// MajorityVote counts one vote per neighbor (the paper's rule). Ties
	// break toward the class whose nearest member is closest to the query,
	// then toward the lower class index.
	MajorityVote VoteStrategy = iota
	// DistanceWeightedVote weighs each neighbor by 1/(d+ε), so nearer
	// neighbors dominate.
	DistanceWeightedVote
	// ProbabilityVote normalizes distance weights into a distribution and
	// picks its argmax.
	ProbabilityVote
)

func (v VoteStrategy) String() string {
	switch v {
	case MajorityVote:
		return "majority"
	case DistanceWeightedVote:
		return "distance-weighted"
	case ProbabilityVote:
		return "probability"
	}
	return fmt.Sprintf("VoteStrategy(%d)", int(v))
}

// distanceEps regularizes 1/d weights for zero-distance neighbors.
const distanceEps = 1e-9

// vote combines a non-empty neighbor set under the strategy.
func vote(nbrs []Neighbor, numClasses int, strategy VoteStrategy) int {
	return voteScratch(nbrs, numClasses, strategy, nil)
}

// voteScratch is vote using s's reusable tally buffers; a nil s allocates.
func voteScratch(nbrs []Neighbor, numClasses int, strategy VoteStrategy, s *Scratch) int {
	switch strategy {
	case DistanceWeightedVote, ProbabilityVote:
		var w []float64
		if s != nil {
			s.weights = growFloats(s.weights, numClasses)
			w = s.weights
			for i := range w {
				w[i] = 0
			}
			accumWeights(w, nbrs)
		} else {
			w = classWeights(nbrs, numClasses)
		}
		best := -1
		for cls, weight := range w {
			if weight == 0 {
				continue
			}
			if best == -1 || weight > w[best] {
				best = cls
			}
		}
		return best
	default:
		var votes []int
		var closest []float64
		if s != nil {
			if cap(s.votes) < numClasses {
				s.votes = make([]int, numClasses)
			}
			s.closest = growFloats(s.closest, numClasses)
			votes, closest = s.votes[:numClasses], s.closest
			for i := range votes {
				votes[i] = 0
			}
		} else {
			votes = make([]int, numClasses)
			closest = make([]float64, numClasses)
		}
		return majority(nbrs, votes, closest)
	}
}

// growFloats returns a length-n float slice reusing v's backing array when
// possible.
func growFloats(v []float64, n int) []float64 {
	if cap(v) < n {
		return make([]float64, n)
	}
	return v[:n]
}

// majority implements the paper's voting rule; votes and closest are
// zeroed/overwritten tally buffers of length numClasses.
func majority(nbrs []Neighbor, votes []int, closest []float64) int {
	for i := range closest {
		closest[i] = -1
	}
	for _, n := range nbrs {
		votes[n.Label]++
		if closest[n.Label] < 0 || n.Distance < closest[n.Label] {
			closest[n.Label] = n.Distance
		}
	}
	best := -1
	for cls, v := range votes {
		if v == 0 {
			continue
		}
		switch {
		case best == -1,
			v > votes[best],
			v == votes[best] && closest[cls] < closest[best]:
			best = cls
		}
	}
	return best
}

// classWeights accumulates 1/(d+ε) per class.
func classWeights(nbrs []Neighbor, numClasses int) []float64 {
	w := make([]float64, numClasses)
	accumWeights(w, nbrs)
	return w
}

// accumWeights folds the neighbors' 1/(d+ε) weights into w.
func accumWeights(w []float64, nbrs []Neighbor) {
	for _, n := range nbrs {
		w[n.Label] += 1 / (n.Distance + distanceEps)
	}
}
