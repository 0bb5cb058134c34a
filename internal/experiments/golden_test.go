package experiments

import (
	"math"
	"strings"
	"testing"

	"github.com/acis-lab/larpredictor/internal/vmtrace"
)

// The paper's numbers under fastOpts, pinned. Any change that moves one of
// them (training, PCA, k-NN, an expert, the trace generator) fails here and
// must update the golden deliberately, saying why. The tolerance is relative
// and tight rather than exact because Go may fuse multiply-adds on some
// architectures (arm64), which moves the last bits.
const goldenRelTol = 1e-9

func closeRel(got, want float64) bool {
	if got == want {
		return true
	}
	return math.Abs(got-want) <= goldenRelTol*math.Max(math.Abs(want), math.Abs(got))
}

func TestHeadlineGolden(t *testing.T) {
	h, err := Headline(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if h.Traces != 52 || h.Degenerate != 8 {
		t.Fatalf("traces=%d degenerate=%d, want 52/8", h.Traces, h.Degenerate)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"MeanLARAccuracy", h.MeanLARAccuracy, 0.5017641914027844},
		{"MeanNWSAccuracy", h.MeanNWSAccuracy, 0.22887584198903158},
		{"LARBeatsBestExpert", h.LARBeatsBestExpert, 0.34615384615384615},
		{"LARBeatsNWS", h.LARBeatsNWS, 0.4230769230769231},
		{"PLARvsNWSReduction", h.PLARvsNWSReduction, 0.4861385852607954},
	} {
		if !closeRel(c.got, c.want) {
			t.Errorf("%s = %.17g, golden %.17g", c.name, c.got, c.want)
		}
	}
}

func TestTable2Golden(t *testing.T) {
	want := []Table2Row{
		{"CPU_usedsec", 0.2783236935863951, 0.6022247762016824, 0.568688153642749, 0.4439788593132239, 0.7062208391499623, false},
		{"CPU_ready", 0.13746680557369326, 0.37866205938505604, 0.468664105977198, 0.37378423925677134, 0.2706949961937054, false},
		{"Memory_size", 0.04150107698494696, 0.06497670173569131, 0.04192259952540778, 0.044880053578303165, 0.25622606576311496, false},
		{"Memory_swapped", 0.010311728886945266, 0.017994701684359474, 0.010594295038905025, 0.011330090723639694, 0.061849985761674456, false},
		{"NIC1_received", 0.03541245855543936, 0.12757642558796445, 0.10960606042768095, 0.0919147749227266, 0.14151145613164012, false},
		{"NIC1_transmitted", 0.0863061065335542, 0.19476020180770143, 0.21683574390981558, 0.1864732455152014, 0.37680856842124233, false},
		{"NIC2_received", 0.1524280490606734, 0.7649374483406897, 0.47984903783105315, 0.7711839132640105, 0.45189219213531995, false},
		{"NIC2_transmitted", 0.034186899581778105, 0.18315701591154662, 0.10003853585405806, 0.11966175052484124, 0.2485901839990543, false},
		{"VD1_read", 0.18237093315642394, 0.5296959683367585, 0.5881342186308451, 0.6695539440123395, 0.6732094785660334, false},
		{"VD1_write", 0.07966909738130191, 0.2860575379339373, 0.21476958911503197, 0.22746240877263962, 0.5883109576783168, false},
		{"VD2_read", 0.1380057878442731, 0.3537326696288883, 0.3127268336615707, 0.2884120195816823, 0.6369766544334835, false},
		{"VD2_write", 0.6258330921154839, 1.4314719015693362, 1.5495015380053476, 1.5368806171727356, 1.9165600043652884, false},
	}
	got, err := Table2(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got.VM != vmtrace.VM1 || len(got.Rows) != len(want) {
		t.Fatalf("table for %s with %d rows, want VM1 with %d", got.VM, len(got.Rows), len(want))
	}
	for i, w := range want {
		g := got.Rows[i]
		if g.Metric != w.Metric || g.Degenerate != w.Degenerate {
			t.Fatalf("row %d = %s (degenerate %v), want %s (%v)", i, g.Metric, g.Degenerate, w.Metric, w.Degenerate)
		}
		for _, c := range []struct {
			col       string
			got, want float64
		}{
			{"P-LAR", g.PLAR, w.PLAR}, {"LAR", g.LAR, w.LAR}, {"LAST", g.LAST, w.LAST},
			{"AR", g.AR, w.AR}, {"SW", g.SW, w.SW},
		} {
			if !closeRel(c.got, c.want) {
				t.Errorf("%s %s = %.17g, golden %.17g", w.Metric, c.col, c.got, c.want)
			}
		}
	}
}

func TestTable3Golden(t *testing.T) {
	// One line per metric, VM1..VM5, in the rendered cell syntax.
	want := []string{
		"AR SW_AVG AR* LAST* AR",
		"SW_AVG SW_AVG AR* LAST AR*",
		"LAST LAST AR* AR AR*",
		"LAST AR* NaN AR AR*",
		"AR AR* LAST AR* NaN",
		"AR SW_AVG AR* AR NaN",
		"SW_AVG AR NaN AR* LAST",
		"LAST SW_AVG NaN AR AR",
		"LAST* AR NaN AR AR",
		"LAST AR* NaN AR AR*",
		"AR AR AR LAST NaN",
		"AR* SW_AVG AR AR* AR*",
	}
	got, err := Table3(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cells) != len(want) {
		t.Fatalf("%d metric rows, want %d", len(got.Cells), len(want))
	}
	for mi, row := range got.Cells {
		cells := make([]string, len(row))
		for vi, c := range row {
			switch {
			case c.NaN:
				cells[vi] = "NaN"
			case c.Star:
				cells[vi] = c.Best + "*"
			default:
				cells[vi] = c.Best
			}
		}
		if line := strings.Join(cells, " "); line != want[mi] {
			t.Errorf("%s: %q, golden %q", got.Metrics[mi], line, want[mi])
		}
	}
	if f := got.StarFraction(); !closeRel(f, 0.34615384615384615) {
		t.Errorf("star fraction %.17g, golden %.17g", f, 0.34615384615384615)
	}
}
