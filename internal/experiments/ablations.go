package experiments

import (
	"fmt"
	"strings"

	"github.com/acis-lab/larpredictor/internal/core"
	"github.com/acis-lab/larpredictor/internal/evaluation"
	"github.com/acis-lab/larpredictor/internal/knn"
	"github.com/acis-lab/larpredictor/internal/predictors"
	"github.com/acis-lab/larpredictor/internal/vmtrace"
)

// AblationRow is one configuration's cross-validated outcome on the
// ablation trace.
type AblationRow struct {
	// Name labels the configuration ("k=3", "pool=extended8", ...).
	Name string
	// LAR is the configuration's cross-validated MSE; Accuracy its
	// best-expert forecasting accuracy.
	LAR      float64
	Accuracy float64
}

// AblationResult is one design-choice sweep.
type AblationResult struct {
	// Dimension names the swept knob ("PCA components", "k", ...).
	Dimension string
	// Trace is the trace the sweep ran on.
	Trace string
	Rows  []AblationRow
}

// Ablations sweeps the design choices DESIGN.md calls out — PCA dimension,
// neighbor count k, window size m, pool composition, and vote strategy — on
// a strongly regime-switching trace, quantifying how far the paper's fixed
// choices (n = 2, k = 3, m = 5, majority vote, 3-expert pool) are from the
// alternatives.
func Ablations(opts Options) ([]*AblationResult, error) {
	ts := vmtrace.StandardTraceSet(opts.Seed)
	s, err := ts.Get(vmtrace.VM4, vmtrace.NIC1RX)
	if err != nil {
		return nil, err
	}

	evalCfg := func(name string, cfg core.Config) (AblationRow, error) {
		o := evaluation.DefaultOptions(cfg, opts.Seed)
		o.Folds = opts.Folds
		r, err := evaluation.EvaluateTrace(s, o)
		if err != nil {
			return AblationRow{}, fmt.Errorf("%s: %w", name, err)
		}
		return AblationRow{Name: name, LAR: r.LAR, Accuracy: r.LARAccuracy}, nil
	}

	var out []*AblationResult

	// PCA dimension.
	pcaSweep := &AblationResult{Dimension: "PCA components (paper: n=2)", Trace: s.Name}
	for _, n := range []int{1, 2, 3, 4} {
		cfg := core.DefaultConfig(5)
		cfg.PCAComponents = n
		row, err := evalCfg(fmt.Sprintf("n=%d", n), cfg)
		if err != nil {
			return nil, err
		}
		pcaSweep.Rows = append(pcaSweep.Rows, row)
	}
	{
		cfg := core.DefaultConfig(5)
		cfg.DisablePCA = true
		row, err := evalCfg("raw windows (no PCA)", cfg)
		if err != nil {
			return nil, err
		}
		pcaSweep.Rows = append(pcaSweep.Rows, row)
	}
	out = append(out, pcaSweep)

	// Neighbor count.
	kSweep := &AblationResult{Dimension: "k-NN neighbors (paper: k=3)", Trace: s.Name}
	for _, k := range []int{1, 3, 5, 7, 9} {
		cfg := core.DefaultConfig(5)
		cfg.K = k
		row, err := evalCfg(fmt.Sprintf("k=%d", k), cfg)
		if err != nil {
			return nil, err
		}
		kSweep.Rows = append(kSweep.Rows, row)
	}
	out = append(out, kSweep)

	// Window size.
	mSweep := &AblationResult{Dimension: "prediction order m (paper: 5/16)", Trace: s.Name}
	for _, m := range []int{4, 5, 8, 16, 32} {
		row, err := evalCfg(fmt.Sprintf("m=%d", m), core.DefaultConfig(m))
		if err != nil {
			return nil, err
		}
		mSweep.Rows = append(mSweep.Rows, row)
	}
	out = append(out, mSweep)

	// Pool composition.
	poolSweep := &AblationResult{Dimension: "expert pool (paper: 3 experts)", Trace: s.Name}
	pools := []struct {
		name   string
		window int
		tier   predictors.PoolTier
	}{
		{"paper3 {LAST,AR,SW_AVG}", 5, predictors.TierPaper},
		{"extended8", 5, predictors.TierExtended},
		{"full10 (+MA,ARIMA)", 6, predictors.TierFull},
	}
	for _, p := range pools {
		pool, err := predictors.BuildPool(p.window, p.tier)
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig(pool.MaxOrder())
		cfg.Pool = pool
		row, err := evalCfg(p.name, cfg)
		if err != nil {
			return nil, err
		}
		poolSweep.Rows = append(poolSweep.Rows, row)
	}
	out = append(out, poolSweep)

	// Vote strategy.
	voteSweep := &AblationResult{Dimension: "vote strategy (paper: majority)", Trace: s.Name}
	for _, v := range []knn.VoteStrategy{knn.MajorityVote, knn.DistanceWeightedVote, knn.ProbabilityVote} {
		cfg := core.DefaultConfig(5)
		cfg.Vote = v
		row, err := evalCfg(v.String(), cfg)
		if err != nil {
			return nil, err
		}
		voteSweep.Rows = append(voteSweep.Rows, row)
	}
	out = append(out, voteSweep)

	return out, nil
}

// RenderAblations prints every sweep as a table.
func RenderAblations(results []*AblationResult) string {
	var b strings.Builder
	for i, r := range results {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "Ablation: %s — trace %s\n", r.Dimension, r.Trace)
		tb := evaluation.NewTable("Configuration", "LAR MSE", "Accuracy")
		for _, row := range r.Rows {
			tb.AddRow(row.Name, evaluation.FormatMSE(row.LAR), evaluation.FormatPct(row.Accuracy))
		}
		b.WriteString(tb.String())
	}
	return b.String()
}
