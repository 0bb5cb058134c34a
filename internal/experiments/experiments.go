// Package experiments contains one driver per table and figure in the
// paper's evaluation (§7), each regenerating the corresponding result from
// the synthetic trace set:
//
//	Figure4  — best-predictor selection timeline for trace VM2_load15
//	Figure5  — best-predictor selection timeline for trace VM2_PktIn
//	Table2   — normalized prediction MSE for all VM1 metrics
//	Table3   — best single predictor per (VM, metric), with LAR wins starred
//	Figure6  — P-LARP / Knn-LARP / Cum.MSE / W-Cum.MSE comparison on VM4
//	Headline — the paper's aggregate claims (§1, §7.1, §7.2.2)
//
// Absolute values differ from the paper (its traces were production VMware
// measurements; ours are synthetic), but the drivers are written so the
// qualitative shape — who wins, roughly by how much, and where — can be
// compared directly. EXPERIMENTS.md records that comparison.
package experiments

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"

	"github.com/acis-lab/larpredictor/internal/core"
	"github.com/acis-lab/larpredictor/internal/evaluation"
	"github.com/acis-lab/larpredictor/internal/vmtrace"
)

// Options parameterizes the experiment drivers.
type Options struct {
	// Seed drives both trace synthesis and cross-validation splits.
	Seed int64
	// Folds is the cross-validation repetition count (10 in the paper).
	Folds int
}

// ConfigFor returns the paper's LARPredictor configuration for a VM's trace
// geometry: prediction order 16 for the 7-day VM1 trace (Table 2's caption)
// and 5 for the 24-hour traces.
func ConfigFor(vm vmtrace.VMID) core.Config {
	if vm == vmtrace.VM1 {
		return core.DefaultConfig(16)
	}
	return core.DefaultConfig(5)
}

// evalOptions builds per-trace evaluation options with a seed derived from
// the trace identity, so fold cuts differ across traces but stay
// reproducible.
func evalOptions(opts Options, vm vmtrace.VMID, metric vmtrace.Metric) evaluation.Options {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%s", opts.Seed, vm, metric)
	o := evaluation.DefaultOptions(ConfigFor(vm), int64(h.Sum64()))
	o.Folds = opts.Folds
	return o
}

// traceEval is one trace's evaluation outcome; Degenerate marks the paper's
// NaN cells.
type traceEval struct {
	vm         vmtrace.VMID
	metric     vmtrace.Metric
	res        *evaluation.TraceResult
	degenerate bool
}

// evaluateAll cross-validates every (VM, metric) trace in the set,
// fanning traces out over the available cores.
func evaluateAll(ts *vmtrace.TraceSet, opts Options) ([]traceEval, error) {
	type job struct {
		vm     vmtrace.VMID
		metric vmtrace.Metric
	}
	var jobs []job
	for _, vm := range vmtrace.VMs() {
		for _, m := range vmtrace.Metrics() {
			jobs = append(jobs, job{vm, m})
		}
	}
	results := make([]traceEval, len(jobs))
	errs := make([]error, len(jobs))

	workers := runtime.GOMAXPROCS(0)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				j := jobs[i]
				s, err := ts.Get(j.vm, j.metric)
				if err != nil {
					errs[i] = err
					continue
				}
				res, err := evaluation.EvaluateTrace(s, evalOptions(opts, j.vm, j.metric))
				switch {
				case err == nil:
					results[i] = traceEval{vm: j.vm, metric: j.metric, res: res}
				case isDegenerate(err):
					results[i] = traceEval{vm: j.vm, metric: j.metric, degenerate: true}
				default:
					errs[i] = fmt.Errorf("%s/%s: %w", j.vm, j.metric, err)
				}
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

func isDegenerate(err error) bool {
	return errors.Is(err, evaluation.ErrDegenerate)
}
