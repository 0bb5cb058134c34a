// Command benchguard compares two `go test -bench` output files and fails
// when the new run regresses against the old one. It is the pass/fail gate
// behind `make bench-guard` and the CI bench-regression job: benchstat (when
// installed) prints the statistician's view, benchguard decides.
//
//	benchguard [-max-time-delta 10] bench-old.txt bench-new.txt
//
// A benchmark regresses when its median time/op grows by more than
// -max-time-delta percent, or when its median allocs/op rises above the
// baseline's highest run. Where every baseline run agrees, as on the
// zero-allocation steady-state paths, that is any new allocation at all;
// where the count itself varies from run to run (sync.Map growth depends on
// the per-process hash seed), the baseline's own spread is not a
// regression. Benchmarks present in only one file are reported and
// skipped: a brand-new benchmark has no baseline to regress from.
//
// Medians over `-count` repetitions keep one descheduled run from failing
// the gate; run the benchmarks with -count 6 or more for a stable verdict.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// series collects every repetition of one benchmark's metrics.
type series struct {
	time   []float64 // ns/op
	allocs []float64 // allocs/op
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// allocsRegressed reports whether the new runs' median allocs/op is above
// every baseline run.
func allocsRegressed(old, new_ []float64) bool {
	return median(new_) > slices.Max(old)
}

// parse reads a `go test -bench` output file into per-benchmark series.
// Benchmark lines look like:
//
//	BenchmarkName/sub-16  20  1022296 ns/op  978190 samples/sec  0 allocs/op
//
// i.e. name, iteration count, then value/unit pairs. Everything else
// (headers, PASS, ok lines) is skipped.
func parse(path string) (map[string]*series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	out := make(map[string]*series)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // not an iteration count; not a benchmark line
		}
		name := fields[0]
		s := out[name]
		if s == nil {
			s = &series{}
			out[name] = s
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				s.time = append(s.time, v)
			case "allocs/op":
				s.allocs = append(s.allocs, v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func main() {
	maxTimeDelta := flag.Float64("max-time-delta", 10,
		"maximum allowed increase in median time/op, in percent")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: benchguard [flags] bench-old.txt bench-new.txt\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}

	old, err := parse(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	new_, err := parse(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}

	names := make([]string, 0, len(new_))
	for name := range new_ {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := 0
	compared := 0
	for _, name := range names {
		o, ok := old[name]
		if !ok {
			fmt.Printf("new       %-60s (no baseline; skipped)\n", name)
			continue
		}
		n := new_[name]
		compared++

		ot, nt := median(o.time), median(n.time)
		bad := false
		detail := ""
		if ot > 0 {
			delta := 100 * (nt - ot) / ot
			detail = fmt.Sprintf("time/op %11.0f -> %11.0f ns (%+6.1f%%)", ot, nt, delta)
			bad = bad || delta > *maxTimeDelta
		}
		if len(o.allocs) > 0 && len(n.allocs) > 0 {
			detail += fmt.Sprintf("  allocs/op %6.0f (max %.0f) -> %6.0f",
				median(o.allocs), slices.Max(o.allocs), median(n.allocs))
			bad = bad || allocsRegressed(o.allocs, n.allocs)
		}
		verdict := "ok"
		if bad {
			verdict = "FAIL"
			failed++
		}
		fmt.Printf("%-9s %-60s %s\n", verdict, name, detail)
	}
	for name := range old {
		if _, ok := new_[name]; !ok {
			fmt.Printf("gone      %-60s (baseline only; skipped)\n", name)
		}
	}

	if compared == 0 {
		fmt.Fprintln(os.Stderr, "benchguard: no benchmarks in common between the two files")
		os.Exit(2)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchguard: %d regression(s) beyond the gate (time/op +%.0f%%, allocs/op <= baseline max)\n",
			failed, *maxTimeDelta)
		os.Exit(1)
	}
	fmt.Printf("benchguard: %d benchmark(s) within the gate (time/op +%.0f%%, allocs/op <= baseline max)\n",
		compared, *maxTimeDelta)
}
