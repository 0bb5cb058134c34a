package experiments

import (
	"fmt"
	"strings"

	"github.com/acis-lab/larpredictor/internal/evaluation"
	"github.com/acis-lab/larpredictor/internal/vmtrace"
)

// Table2Row is one metric's row of the paper's Table 2: normalized
// prediction MSE for P-LAR, LAR, and the three single experts.
type Table2Row struct {
	Metric vmtrace.Metric
	PLAR   float64
	LAR    float64
	LAST   float64
	AR     float64
	SW     float64
	// Degenerate marks an idle (constant) trace.
	Degenerate bool
}

// Table2Result is the full table for one VM.
type Table2Result struct {
	VM   vmtrace.VMID
	Rows []Table2Row
}

// Table2 reproduces the paper's Table 2 for VM1 (duration 168 hours,
// interval 30 minutes, prediction order 16).
func Table2(opts Options) (*Table2Result, error) {
	return tableForVM(vmtrace.VM1, opts)
}

// tableForVM computes Table-2-style rows for any VM.
func tableForVM(vm vmtrace.VMID, opts Options) (*Table2Result, error) {
	ts := vmtrace.StandardTraceSet(opts.Seed)
	out := &Table2Result{VM: vm}
	for _, m := range vmtrace.Metrics() {
		s, err := ts.Get(vm, m)
		if err != nil {
			return nil, err
		}
		tr, err := evaluation.EvaluateTrace(s, evalOptions(opts, vm, m))
		if isDegenerate(err) {
			out.Rows = append(out.Rows, Table2Row{Metric: m, Degenerate: true})
			continue
		}
		if err != nil {
			return nil, err
		}
		row := Table2Row{Metric: m, PLAR: tr.PLAR, LAR: tr.LAR}
		for i, name := range tr.ExpertNames {
			switch name {
			case "LAST":
				row.LAST = tr.Expert[i]
			case "AR":
				row.AR = tr.Expert[i]
			case "SW_AVG":
				row.SW = tr.Expert[i]
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render prints the table; the best value among {LAR, LAST, AR, SW} per row
// is marked with a trailing '*' (the paper uses italic bold).
func (t *Table2Result) Render() string {
	tb := evaluation.NewTable("Perf.Metrics", "P-LAR", "LAR", "LAST", "AR", "SW")
	for _, r := range t.Rows {
		if r.Degenerate {
			tb.AddRow(string(r.Metric), "NaN", "NaN", "NaN", "NaN", "NaN")
			continue
		}
		vals := []float64{r.LAR, r.LAST, r.AR, r.SW}
		best := 0
		for i, v := range vals {
			if v < vals[best] {
				best = i
			}
		}
		cells := make([]string, 4)
		for i, v := range vals {
			cells[i] = evaluation.FormatMSE(v)
			if i == best {
				cells[i] += "*"
			}
		}
		tb.AddRow(string(r.Metric), evaluation.FormatMSE(r.PLAR), cells[0], cells[1], cells[2], cells[3])
	}
	return fmt.Sprintf("Normalized Prediction MSE Statistics for Resources of %s\n%s", t.VM, tb.String())
}

// Table3Cell is one cell of the paper's Table 3: the best single predictor
// for a (metric, VM) pair, with Star set when the LARPredictor matched or
// beat it, and NaN for idle traces.
type Table3Cell struct {
	Best string
	Star bool
	NaN  bool
}

// Table3Result is the full best-predictor matrix.
type Table3Result struct {
	Metrics []vmtrace.Metric
	VMs     []vmtrace.VMID
	// Cells[m][v] corresponds to Metrics[m] and VMs[v].
	Cells [][]Table3Cell
}

// Table3 reproduces the paper's Table 3 over the whole trace set.
func Table3(opts Options) (*Table3Result, error) {
	ts := vmtrace.StandardTraceSet(opts.Seed)
	evals, err := evaluateAll(ts, opts)
	if err != nil {
		return nil, err
	}
	byKey := make(map[string]traceEval, len(evals))
	for _, e := range evals {
		byKey[string(e.vm)+"/"+string(e.metric)] = e
	}

	out := &Table3Result{Metrics: vmtrace.Metrics(), VMs: vmtrace.VMs()}
	for _, m := range out.Metrics {
		row := make([]Table3Cell, len(out.VMs))
		for vi, vm := range out.VMs {
			e := byKey[string(vm)+"/"+string(m)]
			if e.degenerate {
				row[vi] = Table3Cell{NaN: true}
				continue
			}
			_, bestName := e.res.BestExpert()
			row[vi] = Table3Cell{Best: bestName, Star: e.res.LARBeatsBestExpert()}
		}
		out.Cells = append(out.Cells, row)
	}
	return out, nil
}

// StarFraction returns the fraction of non-NaN cells where the LARPredictor
// matched or beat the best single expert (the paper reports 44.23%).
func (t *Table3Result) StarFraction() float64 {
	var stars, total int
	for _, row := range t.Cells {
		for _, c := range row {
			if c.NaN {
				continue
			}
			total++
			if c.Star {
				stars++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(stars) / float64(total)
}

// Render prints the matrix with the paper's cell syntax ("AR*", "LAST",
// "NaN").
func (t *Table3Result) Render() string {
	headers := make([]string, 0, len(t.VMs)+1)
	headers = append(headers, "Perform. Metrics")
	for _, vm := range t.VMs {
		headers = append(headers, string(vm))
	}
	tb := evaluation.NewTable(headers...)
	for mi, m := range t.Metrics {
		cells := make([]string, 0, len(t.VMs)+1)
		cells = append(cells, string(m))
		for _, c := range t.Cells[mi] {
			switch {
			case c.NaN:
				cells = append(cells, "NaN")
			case c.Star:
				cells = append(cells, c.Best+"*")
			default:
				cells = append(cells, c.Best)
			}
		}
		tb.AddRow(cells...)
	}
	var b strings.Builder
	b.WriteString("Best Predictors of All the Trace Data\n")
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "LAR matched or beat the best single predictor on %s of traces\n",
		evaluation.FormatPct(t.StarFraction()))
	return b.String()
}

// HeadlineResult aggregates the paper's headline claims over every
// non-degenerate trace:
//
//   - mean best-predictor forecasting accuracy of LAR vs the NWS selection
//     (paper: 55.98%, a 20.18-point advantage);
//   - the fraction of traces where LAR matches/beats the best single expert
//     (paper: 44.23%);
//   - the fraction where LAR beats the NWS cumulative selector (paper:
//     66.67%);
//   - the mean relative MSE reduction of the perfect LAR versus the NWS
//     selector (paper: 18.63%).
type HeadlineResult struct {
	Traces     int
	Degenerate int

	MeanLARAccuracy float64
	MeanNWSAccuracy float64

	LARBeatsBestExpert float64
	LARBeatsNWS        float64
	PLARvsNWSReduction float64
}

// Headline computes the aggregate result over the full trace set.
func Headline(opts Options) (*HeadlineResult, error) {
	ts := vmtrace.StandardTraceSet(opts.Seed)
	evals, err := evaluateAll(ts, opts)
	if err != nil {
		return nil, err
	}
	out := &HeadlineResult{}
	var beatsBest, beatsNWS int
	var reduction float64
	for _, e := range evals {
		if e.degenerate {
			out.Degenerate++
			continue
		}
		out.Traces++
		out.MeanLARAccuracy += e.res.LARAccuracy
		out.MeanNWSAccuracy += e.res.NWSAccuracy
		if e.res.LARBeatsBestExpert() {
			beatsBest++
		}
		if e.res.LAR < e.res.NWSCum {
			beatsNWS++
		}
		if e.res.NWSCum > 0 {
			reduction += 1 - e.res.PLAR/e.res.NWSCum
		}
	}
	if out.Traces > 0 {
		n := float64(out.Traces)
		out.MeanLARAccuracy /= n
		out.MeanNWSAccuracy /= n
		out.LARBeatsBestExpert = float64(beatsBest) / n
		out.LARBeatsNWS = float64(beatsNWS) / n
		out.PLARvsNWSReduction = reduction / n
	}
	return out, nil
}

// Render prints the headline summary with the paper's reference numbers
// alongside.
func (h *HeadlineResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Headline statistics over %d traces (%d idle traces skipped as NaN)\n",
		h.Traces, h.Degenerate)
	fmt.Fprintf(&b, "  mean best-predictor forecasting accuracy: LAR %s vs NWS %s (paper: 55.98%% vs 35.80%%)\n",
		evaluation.FormatPct(h.MeanLARAccuracy), evaluation.FormatPct(h.MeanNWSAccuracy))
	fmt.Fprintf(&b, "  accuracy advantage: %+.2f points (paper: +20.18)\n",
		100*(h.MeanLARAccuracy-h.MeanNWSAccuracy))
	fmt.Fprintf(&b, "  LAR matches/beats best single predictor: %s of traces (paper: 44.23%%)\n",
		evaluation.FormatPct(h.LARBeatsBestExpert))
	fmt.Fprintf(&b, "  LAR beats NWS Cum.MSE selector:          %s of traces (paper: 66.67%%)\n",
		evaluation.FormatPct(h.LARBeatsNWS))
	fmt.Fprintf(&b, "  P-LAR mean MSE reduction vs NWS:         %s (paper: 18.63%%)\n",
		evaluation.FormatPct(h.PLARvsNWSReduction))
	return b.String()
}
