// Command predictload is the repository's benchmark: a seeded, open-loop
// load generator that builds ./cmd/predictd, runs it as a separate process
// and drives it over its real binary, HTTP and SSE listeners.
//
//	cd cmd/predictload && go run . -seed 1            # all four workloads
//	go run . -workload snap-binary -seconds 10 -seed 3
//	go run . -workload wal-binary -trace              # per-layer budget
//	go run . -repeat 5                                # calibration spreads
//
// Every end-to-end metric prints as "<workload> <metric> <value> <unit>";
// the last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 only when
// every correctness check passed, 2 when the generator itself ran late
// (the run is invalid, not slow), and 1 on any other failure. See README.md
// for the workloads, metrics and calibration.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// metric is one printed measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// lateLimitMs is the validity guard: a run whose generator was late by more
// than this at p90 measured the generator, not the daemon. Such a run is
// abandoned after its open loop and made again, since the usual cause is a
// spell of CPU steal on a shared host. The first attempt that starts
// retryWindow or more after the first one runs to the end whatever its
// lateness, and its verdict stands; so a run ends within about three
// minutes.
const (
	lateLimitMs = 1.0
	retryWindow = 80 * time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// normalizeArgs folds "-trace 0" / "-trace 1" into "-trace=false/true", so
// the boolean flag also takes a separate 0/1 argument.
func normalizeArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+map[string]string{"0": "false", "1": "true"}[args[i+1]])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("predictload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "all", "workload to run: "+workloadNames()+", or all")
		seed    = fs.Int64("seed", 1, "seed every input of the run is generated from")
		seconds = fs.Float64("seconds", 12, "measured seconds per run: 3/4 open loop, 1/4 saturation, each split into segments")
		trace   = fs.Bool("trace", false, "also run the in-process traced pipeline; the JSON line then reports the per-layer metrics")
		repeat  = fs.Int("repeat", 1, "runs per workload (seeds seed, seed+1, ...); prints each metric's median and (max-min)/median spread")
		smoke   = fs.Bool("smoke", false, "500 streams, 2 segments, 1 set-up and 2 restarts instead of 5,000, 16, 5 and 3; for tests")
		workdir = fs.String("workdir", "", "directory for the predictd binary, state and span files (default <repo>/.bench_build/runs)")
	)
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	var selected []workload
	if *name == "all" {
		selected = workloads
	} else if w, ok := workloadByName(*name); ok {
		selected = []workload{w}
	} else {
		fmt.Fprintf(stderr, "predictload: unknown workload %q (want %s or all)\n", *name, workloadNames())
		return 2
	}
	if *seconds <= 0 || *repeat < 1 {
		fmt.Fprintln(stderr, "predictload: -seconds and -repeat must be positive")
		return 2
	}

	// An interrupted run stops its daemons before it exits; predictd also
	// gets SIGKILL from the kernel if this process dies first.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer func() {
		signal.Stop(sigs)
		close(sigs)
	}()
	go func() {
		if _, ok := <-sigs; ok {
			killAll()
			os.Exit(130)
		}
	}()
	defer killAll()
	ctx := context.Background()

	ev, err := prepare(*workdir, *smoke)
	if err != nil {
		fmt.Fprintln(stderr, "predictload:", err)
		return 1
	}
	ev.log = stderr

	out := report{correct: true, metrics: map[string]metric{}}
	invalid := false
	for _, w := range selected {
		var runs [][]metric
		var reported []string
		for i := 0; i < *repeat; i++ {
			s := *seed + int64(i)
			var printed []metric
			var names []string
			var rep runReport
			first := time.Now()
			for a := 1; ; a++ {
				last := time.Since(first) >= retryWindow
				printed, names, rep, err = runOne(ctx, w, s, *seconds, *trace, ev, stdout, !last)
				if err != nil {
					fmt.Fprintf(stderr, "predictload: %s seed %d: %v\n", w.name, s, err)
					return 1
				}
				if !rep.invalid || last {
					break
				}
				fmt.Fprintf(stderr, "predictload: %s seed %d: attempt %d invalid (%v); running it again\n", w.name, s, a, rep.invalidity)
			}
			printMetrics(stdout, w.name, printed)
			for _, p := range rep.problems {
				fmt.Fprintf(stdout, "%s FAIL %v\n", w.name, p)
			}
			out.add(rep)
			invalid = invalid || rep.invalid
			runs = append(runs, printed)
			reported = names
		}
		final := runs[0]
		if *repeat > 1 {
			final = summarize(w.name, runs, stdout)
		}
		byName := map[string]metric{}
		for _, m := range final {
			byName[m.name] = m
		}
		for _, name := range reported {
			key := name
			if len(selected) > 1 {
				key = w.name + "/" + name
			}
			out.metrics[key] = byName[name]
		}
	}
	out.print(stdout)
	switch {
	case invalid:
		return 2
	case !out.correct:
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// prepare builds predictd into the work directory.
func prepare(workdir string, smoke bool) (env, error) {
	wd, err := os.Getwd()
	if err != nil {
		return env{}, err
	}
	root, err := findRoot(wd)
	if err != nil {
		return env{}, err
	}
	if workdir == "" {
		workdir = filepath.Join(root, ".bench_build", "runs")
	}
	if workdir, err = filepath.Abs(workdir); err != nil {
		return env{}, err
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return env{}, err
	}
	bin, err := buildPredictd(root, workdir)
	if err != nil {
		return env{}, err
	}
	return env{bin: bin, workdir: workdir, smoke: smoke}, nil
}

// runReport is the accounting of one run.
type runReport struct {
	attempted, failed int
	problems          []error
	invalid           bool
	invalidity        error // why the run is invalid
}

// runOne runs one workload once and, with trace and a valid untraced run,
// the traced pipeline after it. It returns its end-to-end metrics, the
// unbounded end-to-end figures and any per-layer metrics, in print order,
// and the names of the metrics the JSON line reports: the end-to-end ones,
// or with trace the per-layer ones, which include the unbounded figures.
func runOne(ctx context.Context, w workload, seed int64, seconds float64, trace bool, ev env, stdout io.Writer, abortLate bool) ([]metric, []string, runReport, error) {
	sz := w.sizesFor(seconds, ev.smoke)
	r, err := runE2E(ctx, w, seed, sz, ev, abortLate)
	if err != nil {
		return nil, nil, runReport{}, err
	}
	rep := runReport{attempted: r.attempted, failed: r.failed, problems: r.problems}
	if late := r.lateP90(); late > lateLimitMs {
		rep.invalid = true
		rep.invalidity = fmt.Errorf("%w: generator late by %.3f ms at p90 (limit %.1f ms)", errInvalid, late, lateLimitMs)
		rep.problems = append(rep.problems, rep.invalidity)
	}
	ms, unbounded := r.metrics(), r.unbounded()
	printed := append(append([]metric(nil), ms...), unbounded...)
	reported := ms
	if trace && !rep.invalid {
		tm, err := runTrace(ctx, w, seed, ev, r, stdout)
		if err != nil {
			return nil, nil, rep, fmt.Errorf("trace: %w", err)
		}
		printed = append(printed, tm...)
		reported = append(tm, unbounded...)
	}
	var names []string
	for _, m := range reported {
		names = append(names, m.name)
	}
	return printed, names, rep, nil
}

func formatValue(v float64) string { return fmt.Sprintf("%.6g", v) }

func printMetrics(w io.Writer, workload string, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(w, "%s %s %s %s\n", workload, m.name, formatValue(m.value), m.unit)
	}
}

// metrics lists the end-to-end metrics BENCHMARK.json bounds, in its order.
func (r *e2e) metrics() []metric {
	return []metric{
		{"setup_s", median(r.setup), "s"},
		{"rss_mb", r.rssMB, "MB"},
		{"forecast_nmse", r.nmse, "ratio"},
	}
}

// unbounded lists the end-to-end figures every run prints that
// BENCHMARK.json does not bound, because their medians moved between
// calibration sets by more than the bound the benchmark may set (see
// README.md); BENCHMARK.json lists them among the per-layer metrics. A
// figure measured per segment is the median over the run's segments.
// error_rate is 0 on every run that passes: any failed operation fails it.
func (r *e2e) unbounded() []metric {
	return []metric{
		{"ack_p50_ms", median(r.ackP50), "ms"},
		{"ack_p90_ms", median(r.ackP90), "ms"},
		{"fresh_p50_ms", median(r.freshP50), "ms"},
		{"fresh_p90_ms", median(r.freshP90), "ms"},
		{"read_p50_ms", median(r.readP50), "ms"},
		{"read_p90_ms", median(r.readP90), "ms"},
		{"max_samples_per_s", median(r.satRate), "samples/s"},
		{"cpu_us_per_sample", median(r.cpu), "us"},
		{"recover_s", median(r.recover), "s"},
		{"error_rate", float64(r.failed) / float64(max(r.attempted, 1)), "ratio"},
	}
}

// summarize prints each metric's median over repeated runs with its
// (max-min)/median spread and its interquartile range over the median, and
// returns the medians.
func summarize(workload string, runs [][]metric, stdout io.Writer) []metric {
	var out []metric
	for i, m := range runs[0] {
		vals := make([]float64, len(runs))
		for j := range runs {
			vals[j] = runs[j][i].value
		}
		med := median(append([]float64(nil), vals...))
		fmt.Fprintf(stdout, "%s %s median %s %s spread %.3f iqr %.3f over %d runs\n",
			workload, m.name, formatValue(med), m.unit, spread(vals), iqr(vals), len(runs))
		out = append(out, metric{m.name, med, m.unit})
	}
	return out
}

// report is the final JSON line.
type report struct {
	correct           bool
	attempted, failed int
	metrics           map[string]metric
}

func (r *report) add(rep runReport) {
	r.attempted += rep.attempted
	r.failed += rep.failed
	for _, p := range rep.problems {
		if !errors.Is(p, errInvalid) {
			r.correct = false
		}
	}
}

func (r *report) print(w io.Writer) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	doc := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]value{}}
	for k, m := range r.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // JSON has no encoding for them; a ratio over nothing reads 0
		}
		doc.Metrics[k] = value{v, m.unit}
	}
	b, err := json.Marshal(doc)
	if err != nil {
		panic(err) // finite floats, strings and ints always encode
	}
	fmt.Fprintf(w, "%s\n", b)
}
