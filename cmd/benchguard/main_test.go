package main

import (
	"os"
	"path/filepath"
	"testing"
)

func writeBench(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseBenchOutput(t *testing.T) {
	path := writeBench(t, "bench.txt", `goos: linux
goarch: amd64
pkg: example.com/x
BenchmarkFast-16    	 1000000	      1042 ns/op	     978190 samples/sec	       0 B/op	       0 allocs/op
BenchmarkFast-16    	 1000000	      1058 ns/op	     970000 samples/sec	       0 B/op	       0 allocs/op
BenchmarkSlow/sub=1-16 	      10	   5000000 ns/op	       3 allocs/op
PASS
ok  	example.com/x	2.5s
`)
	got, err := parse(path)
	if err != nil {
		t.Fatal(err)
	}
	fast, ok := got["BenchmarkFast-16"]
	if !ok {
		t.Fatalf("BenchmarkFast-16 missing; parsed %d benchmarks", len(got))
	}
	if len(fast.time) != 2 || fast.time[0] != 1042 || fast.time[1] != 1058 {
		t.Errorf("fast.time = %v, want [1042 1058]", fast.time)
	}
	if len(fast.allocs) != 2 || fast.allocs[0] != 0 {
		t.Errorf("fast.allocs = %v, want [0 0]", fast.allocs)
	}
	slow, ok := got["BenchmarkSlow/sub=1-16"]
	if !ok {
		t.Fatal("BenchmarkSlow/sub=1-16 missing")
	}
	if len(slow.time) != 1 || slow.time[0] != 5e6 {
		t.Errorf("slow.time = %v, want [5e6]", slow.time)
	}
	if len(slow.allocs) != 1 || slow.allocs[0] != 3 {
		t.Errorf("slow.allocs = %v, want [3]", slow.allocs)
	}
}

func TestParseSkipsNonBenchmarkLines(t *testing.T) {
	path := writeBench(t, "junk.txt", `BenchmarkNotARun this line has no count
Benchmark
random text
`)
	got, err := parse(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("parsed %d benchmarks from junk, want 0", len(got))
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestAllocsGate: the median allocs/op may not rise above the baseline's
// highest run. Agreeing baseline runs keep the gate exact, and a noisy
// baseline's spread passes while one allocation per stream of a 5,000-stream
// restore still fails.
func TestAllocsGate(t *testing.T) {
	cases := []struct {
		name     string
		old, new []float64
		want     bool
	}{
		{"zero stays zero", []float64{0, 0, 0}, []float64{0, 0, 0}, false},
		{"one new allocation", []float64{0, 0, 0}, []float64{1, 1, 0}, true},
		{"exact count kept", []float64{12, 12, 12}, []float64{12, 12, 12}, false},
		{"exact count grown", []float64{12, 12, 12}, []float64{12, 13, 13}, true},
		{"above the median, within a noisy baseline", []float64{4969626, 4969697, 4969655, 4969678},
			[]float64{4969690, 4969680, 4969675, 4969660}, false},
		{"noisy baseline, fewer", []float64{4969626, 4969697}, []float64{4959650, 4959700}, false},
		{"one per stream over a noisy baseline", []float64{4969626, 4969697, 4969655, 4969678},
			[]float64{4974660, 4974640, 4974700, 4974650}, true},
		{"median above the highest run", []float64{4969626, 4969697}, []float64{4969690, 4969700, 4969705}, true},
	}
	for _, c := range cases {
		if got := allocsRegressed(c.old, c.new); got != c.want {
			t.Errorf("%s: allocsRegressed(%v, %v) = %v, want %v", c.name, c.old, c.new, got, c.want)
		}
	}
}
