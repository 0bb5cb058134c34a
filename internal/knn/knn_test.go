package knn

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustClassifier(t *testing.T, pts [][]float64, labels []int, cfg Config) *Classifier {
	t.Helper()
	c, err := NewClassifier(pts, labels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewClassifierValidation(t *testing.T) {
	good := [][]float64{{0, 0}, {1, 1}, {2, 2}}
	labels := []int{0, 1, 0}
	cases := []struct {
		name   string
		pts    [][]float64
		labels []int
		cfg    Config
	}{
		{"empty", nil, nil, Config{}},
		{"mismatch", good, []int{0, 1}, Config{}},
		{"ragged", [][]float64{{1, 2}, {1}}, []int{0, 1}, Config{}},
		{"zero-dim", [][]float64{{}, {}}, []int{0, 0}, Config{}},
		{"negative-label", good, []int{0, -1, 0}, Config{}},
		{"bad-k", good, labels, Config{K: -1}},
	}
	for _, c := range cases {
		if _, err := NewClassifier(c.pts, c.labels, c.cfg); !errors.Is(err, ErrBadInput) {
			t.Errorf("%s: err = %v, want ErrBadInput", c.name, err)
		}
	}
}

func TestDefaultK(t *testing.T) {
	c := mustClassifier(t, [][]float64{{0}, {1}, {2}, {3}}, []int{0, 0, 1, 1}, Config{})
	if c.K() != 3 {
		t.Errorf("default K = %d, want 3", c.K())
	}
	if c.Len() != 4 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestClassifySimple(t *testing.T) {
	// Two well-separated clusters.
	pts := [][]float64{
		{0, 0}, {0.1, 0}, {0, 0.1}, // class 0
		{5, 5}, {5.1, 5}, {5, 5.1}, // class 1
	}
	labels := []int{0, 0, 0, 1, 1, 1}
	for _, kd := range []bool{false, true} {
		c := mustClassifier(t, pts, labels, Config{K: 3, UseKDTree: kd})
		got, err := c.Classify([]float64{0.05, 0.05})
		if err != nil {
			t.Fatal(err)
		}
		if got != 0 {
			t.Errorf("kdtree=%v: near-origin query classified %d", kd, got)
		}
		got, err = c.Classify([]float64{4.9, 5.2})
		if err != nil {
			t.Fatal(err)
		}
		if got != 1 {
			t.Errorf("kdtree=%v: far query classified %d", kd, got)
		}
	}
}

func TestClassifyMajorityOverrulesNearest(t *testing.T) {
	// Nearest point is class 1 but classes 0 dominates the 3-neighborhood.
	pts := [][]float64{{1}, {2}, {3}, {100}}
	labels := []int{1, 0, 0, 0}
	c := mustClassifier(t, pts, labels, Config{K: 3})
	got, err := c.Classify([]float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("majority vote = %d, want 0", got)
	}
}

func TestClassifyTieBreaksToCloserClass(t *testing.T) {
	// k=2 with one vote each: the class of the nearer neighbor must win.
	pts := [][]float64{{1}, {3}}
	labels := []int{1, 0}
	c := mustClassifier(t, pts, labels, Config{K: 2})
	got, err := c.Classify([]float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("tie broke to %d, want nearer class 1", got)
	}
}

func TestClassifyNeighborsReturnsOrderedSet(t *testing.T) {
	pts := [][]float64{{0}, {1}, {2}, {10}}
	labels := []int{0, 1, 2, 3}
	c := mustClassifier(t, pts, labels, Config{K: 3})
	_, nbrs, err := c.ClassifyNeighbors([]float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(nbrs) != 3 {
		t.Fatalf("got %d neighbors", len(nbrs))
	}
	for i := 1; i < len(nbrs); i++ {
		if nbrs[i].Distance < nbrs[i-1].Distance {
			t.Fatal("neighbors not sorted by distance")
		}
	}
	if nbrs[0].Index != 0 || nbrs[1].Index != 1 || nbrs[2].Index != 2 {
		t.Errorf("neighbor indexes = %v", nbrs)
	}
	if nbrs[1].Distance != 1 {
		t.Errorf("distance to {1} = %g, want 1 (not squared)", nbrs[1].Distance)
	}
}

func TestKLargerThanTrainingSet(t *testing.T) {
	for _, kd := range []bool{false, true} {
		c := mustClassifier(t, [][]float64{{0}, {1}}, []int{0, 1}, Config{K: 5, UseKDTree: kd})
		_, nbrs, err := c.ClassifyNeighbors([]float64{0})
		if err != nil {
			t.Fatal(err)
		}
		if len(nbrs) != 2 {
			t.Errorf("kdtree=%v: got %d neighbors, want 2", kd, len(nbrs))
		}
	}
}

func TestQueryDimensionMismatch(t *testing.T) {
	for _, kd := range []bool{false, true} {
		c := mustClassifier(t, [][]float64{{0, 0}, {1, 1}}, []int{0, 1}, Config{UseKDTree: kd})
		if _, err := c.Classify([]float64{0}); !errors.Is(err, ErrBadInput) {
			t.Errorf("kdtree=%v: dimension mismatch not rejected", kd)
		}
	}
}

func TestClassifierCopiesTrainingData(t *testing.T) {
	pts := [][]float64{{0}, {5}}
	labels := []int{0, 1}
	c := mustClassifier(t, pts, labels, Config{K: 1})
	pts[0][0] = 100 // mutate caller's data
	labels[0] = 1
	got, err := c.Classify([]float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Error("classifier aliased caller's training data")
	}
}

func TestKDTreeMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(200)
		dim := 1 + rng.Intn(5)
		k := 1 + rng.Intn(7)
		pts := make([][]float64, n)
		labels := make([]int, n)
		for i := range pts {
			pts[i] = make([]float64, dim)
			for j := range pts[i] {
				// Quantized coordinates create duplicates, exercising ties.
				pts[i][j] = float64(rng.Intn(8))
			}
			labels[i] = rng.Intn(3)
		}
		bf := newBruteForce(newTrainingSet(pts, labels))
		kd := newKDTree(newTrainingSet(pts, labels))
		for trial := 0; trial < 5; trial++ {
			q := make([]float64, dim)
			for j := range q {
				q[j] = rng.Float64() * 8
			}
			a, err1 := bf.Nearest(q, k)
			b, err2 := kd.Nearest(q, k)
			if err1 != nil || err2 != nil {
				return false
			}
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i].Index != b[i].Index || a[i].Distance != b[i].Distance {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestNearestDeterministicWithDuplicatePoints(t *testing.T) {
	pts := [][]float64{{1, 1}, {1, 1}, {1, 1}, {2, 2}}
	labels := []int{0, 1, 2, 3}
	for _, kd := range []bool{false, true} {
		c := mustClassifier(t, pts, labels, Config{K: 2, UseKDTree: kd})
		_, nbrs, err := c.ClassifyNeighbors([]float64{1, 1})
		if err != nil {
			t.Fatal(err)
		}
		// Tie on distance must break by index: 0 then 1.
		if nbrs[0].Index != 0 || nbrs[1].Index != 1 {
			t.Errorf("kdtree=%v: duplicate-point neighbors = %v", kd, nbrs)
		}
	}
}
