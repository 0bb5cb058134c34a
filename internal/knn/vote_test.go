package knn

import (
	"math"
	"strings"
	"testing"
)

func TestVoteStrategyStrings(t *testing.T) {
	cases := map[VoteStrategy]string{
		MajorityVote:         "majority",
		DistanceWeightedVote: "distance-weighted",
		ProbabilityVote:      "probability",
		VoteStrategy(42):     "VoteStrategy(42)",
	}
	for s, want := range cases {
		if got := s.String(); !strings.Contains(got, want) {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestDistanceWeightedOverridesMajority(t *testing.T) {
	// Two distant class-0 neighbors vs one very close class-1 neighbor:
	// majority picks 0, distance weighting picks 1.
	pts := [][]float64{{0.1}, {10}, {11}}
	labels := []int{1, 0, 0}
	maj := mustClassifier(t, pts, labels, Config{K: 3, Vote: MajorityVote})
	dw := mustClassifier(t, pts, labels, Config{K: 3, Vote: DistanceWeightedVote})

	q := []float64{0}
	gotMaj, err := maj.Classify(q)
	if err != nil {
		t.Fatal(err)
	}
	gotDW, err := dw.Classify(q)
	if err != nil {
		t.Fatal(err)
	}
	if gotMaj != 0 {
		t.Errorf("majority = %d, want 0", gotMaj)
	}
	if gotDW != 1 {
		t.Errorf("distance-weighted = %d, want 1", gotDW)
	}
}

func TestProbabilityVoteMatchesDistanceWeighted(t *testing.T) {
	pts := [][]float64{{0.5}, {2}, {3}, {9}}
	labels := []int{1, 0, 0, 1}
	p := mustClassifier(t, pts, labels, Config{K: 3, Vote: ProbabilityVote})
	d := mustClassifier(t, pts, labels, Config{K: 3, Vote: DistanceWeightedVote})
	for _, q := range [][]float64{{0}, {2.5}, {8}} {
		a, err := p.Classify(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := d.Classify(q)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("q=%v: probability %d != distance-weighted %d", q, a, b)
		}
	}
}

// nearestWeights returns the per-class 1/(d+ε) weights over q's k nearest
// neighbors, as the weighted votes tally them.
func nearestWeights(t *testing.T, c *Classifier, q []float64) []float64 {
	t.Helper()
	nbrs, err := c.search.Nearest(q, c.k)
	if err != nil {
		t.Fatal(err)
	}
	return classWeights(nbrs, c.numClasses)
}

func TestProbabilities(t *testing.T) {
	pts := [][]float64{{0}, {1}, {2}, {100}}
	labels := []int{0, 1, 1, 2}
	c := mustClassifier(t, pts, labels, Config{K: 3, Vote: ProbabilityVote})
	// The class weights ProbabilityVote normalizes and takes the argmax of.
	probs := nearestWeights(t, c, []float64{0})
	if len(probs) != 3 {
		t.Fatalf("probs = %v", probs)
	}
	for _, p := range probs {
		if p < 0 || math.IsInf(p, 0) || math.IsNaN(p) {
			t.Fatalf("weight out of range: %v", probs)
		}
	}
	// Neighbor at distance 0 (class 0) must dominate.
	if probs[0] <= probs[1] || probs[0] <= probs[2] {
		t.Errorf("zero-distance class not dominant: %v", probs)
	}
	if got, err := c.Classify([]float64{0}); err != nil || got != 0 {
		t.Errorf("Classify = %d, %v; want 0", got, err)
	}
	// Class 2's point is not among the 3 nearest: weight 0.
	if probs[2] != 0 {
		t.Errorf("distant class weight = %g, want 0", probs[2])
	}
	if _, err := c.Classify([]float64{1, 2}); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestZeroDistanceNeighborsDoNotBlowUp(t *testing.T) {
	pts := [][]float64{{1}, {1}, {5}}
	labels := []int{0, 0, 1}
	c := mustClassifier(t, pts, labels, Config{K: 3, Vote: DistanceWeightedVote})
	got, err := c.Classify([]float64{1}) // two exact matches
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("exact-match vote = %d, want 0", got)
	}
	probs := nearestWeights(t, c, []float64{1})
	for _, p := range probs {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("probabilities = %v", probs)
		}
	}
}

// TestMajorityTieBreaking pins the documented tie rule: a vote tie breaks
// toward the class whose nearest member is closest to the query, and when
// even those distances tie, toward the lower class index.
func TestMajorityTieBreaking(t *testing.T) {
	cases := []struct {
		name string
		nbrs []Neighbor
		want int
	}{
		{
			name: "tie broken by closest member",
			nbrs: []Neighbor{
				{Label: 0, Distance: 2.0}, {Label: 0, Distance: 3.0},
				{Label: 1, Distance: 0.5}, {Label: 1, Distance: 9.0},
			},
			want: 1,
		},
		{
			name: "tie broken by closest member, reversed classes",
			nbrs: []Neighbor{
				{Label: 1, Distance: 2.0}, {Label: 1, Distance: 3.0},
				{Label: 0, Distance: 0.5}, {Label: 0, Distance: 9.0},
			},
			want: 0,
		},
		{
			name: "equal closest distances fall to lower class index",
			nbrs: []Neighbor{
				{Label: 2, Distance: 1.0}, {Label: 2, Distance: 4.0},
				{Label: 1, Distance: 1.0}, {Label: 1, Distance: 4.0},
			},
			want: 1,
		},
		{
			name: "three-way tie, all equidistant",
			nbrs: []Neighbor{
				{Label: 2, Distance: 1}, {Label: 1, Distance: 1}, {Label: 0, Distance: 1},
			},
			want: 0,
		},
		{
			name: "clear majority ignores a closer minority neighbor",
			nbrs: []Neighbor{
				{Label: 0, Distance: 5}, {Label: 0, Distance: 6},
				{Label: 1, Distance: 0.1},
			},
			want: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := vote(tc.nbrs, 3, MajorityVote); got != tc.want {
				t.Errorf("vote = %d, want %d", got, tc.want)
			}
			// The scratch-buffer path must agree with the allocating path.
			var s Scratch
			if got := voteScratch(tc.nbrs, 3, MajorityVote, &s); got != tc.want {
				t.Errorf("voteScratch = %d, want %d", got, tc.want)
			}
			// Reused (dirty) scratch buffers must not leak tallies between
			// calls.
			if got := voteScratch(tc.nbrs, 3, MajorityVote, &s); got != tc.want {
				t.Errorf("voteScratch (reused) = %d, want %d", got, tc.want)
			}
		})
	}
}

// TestDistanceWeightedDeterministicOnEqualWeights locks in the argmax rule
// for the weighted strategies: exactly equal class weights resolve to the
// lower class index, independent of neighbor order.
func TestDistanceWeightedDeterministicOnEqualWeights(t *testing.T) {
	// One neighbor per class at identical distance: weights are bit-for-bit
	// equal, so the argmax must settle on class 0 for every permutation.
	perms := [][]Neighbor{
		{{Label: 0, Distance: 2}, {Label: 1, Distance: 2}, {Label: 2, Distance: 2}},
		{{Label: 2, Distance: 2}, {Label: 0, Distance: 2}, {Label: 1, Distance: 2}},
		{{Label: 1, Distance: 2}, {Label: 2, Distance: 2}, {Label: 0, Distance: 2}},
	}
	for _, strategy := range []VoteStrategy{DistanceWeightedVote, ProbabilityVote} {
		for i, nbrs := range perms {
			if got := vote(nbrs, 3, strategy); got != 0 {
				t.Errorf("%v perm %d: vote = %d, want 0 (lower class index)", strategy, i, got)
			}
			var s Scratch
			if got := voteScratch(nbrs, 3, strategy, &s); got != 0 {
				t.Errorf("%v perm %d: voteScratch = %d, want 0", strategy, i, got)
			}
		}
	}
	// Two neighbors for class 2 vs one of class 1 at half the distance:
	// 1/(d+ε) weights tie only approximately, so the strictly-greater argmax
	// must still pick deterministically — the first class reaching the
	// maximal weight.
	nbrs := []Neighbor{
		{Label: 2, Distance: 4}, {Label: 2, Distance: 4}, {Label: 1, Distance: 1},
	}
	want := vote(nbrs, 3, DistanceWeightedVote)
	for i := 0; i < 100; i++ {
		if got := vote(nbrs, 3, DistanceWeightedVote); got != want {
			t.Fatalf("iteration %d: vote = %d, want stable %d", i, got, want)
		}
	}
}

func TestMajorityIsDefaultStrategy(t *testing.T) {
	pts := [][]float64{{0.1}, {10}, {11}}
	labels := []int{1, 0, 0}
	c := mustClassifier(t, pts, labels, Config{K: 3})
	got, err := c.Classify([]float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("default strategy is not majority: got %d", got)
	}
}
