package experiments

import (
	"math"
	"strings"
	"testing"

	"github.com/acis-lab/larpredictor/internal/vmtrace"
)

// fastOpts keeps the test-suite experiment runs affordable.
func fastOpts() Options { return Options{Seed: 2007, Folds: 2} }

func TestConfigFor(t *testing.T) {
	if ConfigFor(vmtrace.VM1).WindowSize != 16 {
		t.Error("VM1 should use the 16-sample window (Table 2 caption)")
	}
	if ConfigFor(vmtrace.VM2).WindowSize != 5 {
		t.Error("24-hour traces should use the 5-sample window")
	}
}

func TestEvalOptionsSeedsDiffer(t *testing.T) {
	a := evalOptions(fastOpts(), vmtrace.VM2, vmtrace.CPUUsedSec)
	b := evalOptions(fastOpts(), vmtrace.VM3, vmtrace.CPUUsedSec)
	c := evalOptions(fastOpts(), vmtrace.VM2, vmtrace.CPUReady)
	if a.Seed == b.Seed || a.Seed == c.Seed {
		t.Error("per-trace evaluation seeds collide")
	}
	// And they are stable.
	if a.Seed != evalOptions(fastOpts(), vmtrace.VM2, vmtrace.CPUUsedSec).Seed {
		t.Error("evaluation seeds are not reproducible")
	}
}

func TestFigure4Structure(t *testing.T) {
	r, err := Figure4(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.Trace != "VM2_load15" {
		t.Errorf("trace = %q", r.Trace)
	}
	if len(r.Classes) != 3 || r.Classes[0] != "LAST" || r.Classes[1] != "AR" || r.Classes[2] != "SW_AVG" {
		t.Errorf("classes = %v", r.Classes)
	}
	n := len(r.ObservedBest)
	if n == 0 || len(r.LARSelected) != n || len(r.NWSSelected) != n {
		t.Fatalf("timeline lengths %d/%d/%d", n, len(r.LARSelected), len(r.NWSSelected))
	}
	for i := 0; i < n; i++ {
		for _, v := range []int{r.ObservedBest[i], r.LARSelected[i], r.NWSSelected[i]} {
			if v < 0 || v >= len(r.Classes) {
				t.Fatalf("class index %d out of range at step %d", v, i)
			}
		}
	}
	// Accuracy fields must agree with the timelines.
	correct := 0
	for i := range r.LARSelected {
		if r.LARSelected[i] == r.ObservedBest[i] {
			correct++
		}
	}
	if got := float64(correct) / float64(n); math.Abs(got-r.LARAccuracy) > 1e-12 {
		t.Errorf("LARAccuracy %g inconsistent with timeline %g", r.LARAccuracy, got)
	}
	out := r.Render()
	for _, want := range []string{"VM2_load15", "observed best", "LARPredictor", "NWS"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestFigure5Structure(t *testing.T) {
	r, err := Figure5(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.Trace != "VM2_PktIn" {
		t.Errorf("trace = %q", r.Trace)
	}
	if len(r.ObservedBest) == 0 {
		t.Error("empty timeline")
	}
}

func TestTable2Invariants(t *testing.T) {
	r, err := Table2(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.VM != vmtrace.VM1 {
		t.Errorf("VM = %s", r.VM)
	}
	if len(r.Rows) != 12 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Degenerate {
			continue
		}
		// The oracle dominates every column.
		for _, v := range []float64{row.LAR, row.LAST, row.AR, row.SW} {
			if row.PLAR > v+1e-9 {
				t.Errorf("%s: P-LAR %g above column %g", row.Metric, row.PLAR, v)
			}
			if math.IsNaN(v) || v < 0 {
				t.Errorf("%s: bad MSE %g", row.Metric, v)
			}
		}
	}
	out := r.Render()
	if !strings.Contains(out, "CPU_usedsec") || !strings.Contains(out, "P-LAR") {
		t.Error("render missing expected content")
	}
	// Exactly one star per non-degenerate row.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "NaN") || strings.Contains(line, "P-LAR") || line == "" {
			continue
		}
		if n := strings.Count(line, "*"); strings.Contains(line, ".") && n != 1 {
			t.Errorf("row %q has %d stars, want 1", line, n)
		}
	}
}

func TestTable3Structure(t *testing.T) {
	r, err := Table3(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Metrics) != 12 || len(r.VMs) != 5 || len(r.Cells) != 12 {
		t.Fatalf("shape %dx%d cells=%d", len(r.Metrics), len(r.VMs), len(r.Cells))
	}
	// The 8 idle cells must be NaN, in the same positions as the paper.
	nan := 0
	wins := map[string]int{}
	for mi, m := range r.Metrics {
		for vi, vm := range r.VMs {
			c := r.Cells[mi][vi]
			if c.NaN {
				nan++
				continue
			}
			switch c.Best {
			case "LAST", "AR", "SW_AVG":
			default:
				t.Errorf("%s/%s: unexpected best %q", vm, m, c.Best)
			}
			wins[c.Best]++
		}
	}
	if nan != 8 {
		t.Errorf("NaN cells = %d, want 8", nan)
	}
	sf := r.StarFraction()
	if sf < 0 || sf > 1 {
		t.Errorf("star fraction %g", sf)
	}
	totalWins := 0
	for _, n := range wins {
		totalWins += n
	}
	if totalWins != 52 {
		t.Errorf("win counts sum to %d, want 52", totalWins)
	}
	// AR must be the plurality winner (paper: "the AR model performed
	// better than the LAST and the SW_AVG models").
	if wins["AR"] < wins["LAST"] || wins["AR"] < wins["SW_AVG"] {
		t.Errorf("AR is not the plurality best expert: %v", wins)
	}
	out := r.Render()
	if !strings.Contains(out, "NaN") || !strings.Contains(out, "VM5") {
		t.Error("render missing expected content")
	}
}

func TestFigure6Structure(t *testing.T) {
	r, err := Figure6(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.VM != vmtrace.VM4 {
		t.Errorf("VM = %s", r.VM)
	}
	if len(r.Metrics) != 12 {
		t.Fatalf("metrics = %d", len(r.Metrics))
	}
	for i := range r.Metrics {
		if math.IsNaN(r.LAR[i]) {
			continue
		}
		// Oracle dominates all selectors.
		for _, v := range []float64{r.LAR[i], r.Cum[i], r.WCum[i]} {
			if r.PLAR[i] > v+1e-9 {
				t.Errorf("%s: P-LARP %g above selector %g", r.Metrics[i], r.PLAR[i], v)
			}
		}
	}
	if !strings.Contains(r.Render(), "W-Cum.MSE") {
		t.Error("render missing W-Cum.MSE column")
	}
}

func TestHeadlineShape(t *testing.T) {
	r, err := Headline(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.Traces != 52 || r.Degenerate != 8 {
		t.Fatalf("traces=%d degenerate=%d, want 52/8", r.Traces, r.Degenerate)
	}
	for _, v := range []float64{r.MeanLARAccuracy, r.MeanNWSAccuracy, r.LARBeatsBestExpert, r.LARBeatsNWS} {
		if v < 0 || v > 1 {
			t.Fatalf("fraction out of range: %+v", r)
		}
	}
	// The paper's central claim: the learned selector forecasts the best
	// expert far more accurately than cumulative-MSE selection.
	if r.MeanLARAccuracy <= r.MeanNWSAccuracy {
		t.Errorf("LAR accuracy %.3f not above NWS %.3f", r.MeanLARAccuracy, r.MeanNWSAccuracy)
	}
	// And LAR accuracy beats random selection over 3 experts.
	if r.MeanLARAccuracy < 1.0/3 {
		t.Errorf("LAR accuracy %.3f below random", r.MeanLARAccuracy)
	}
	if !strings.Contains(r.Render(), "paper: 44.23%") {
		t.Error("render missing paper reference numbers")
	}
}

func TestRunAllWritesEverySection(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite")
	}
	var sb strings.Builder
	if err := RunAll(fastOpts(), &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"== Figure 4 ==", "== Figure 5 ==", "== Table 2 ==",
		"== Table 3 ==", "== Figure 6 ==", "== Headline ==",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("RunAll output missing %q", want)
		}
	}
}

func TestIsDegenerateHelper(t *testing.T) {
	if isDegenerate(nil) {
		t.Error("nil is not degenerate")
	}
}
