// Command larpredict trains a LARPredictor on the leading portion of a CSV
// time series and reports its prediction performance on the remainder,
// comparing against the perfect-selection oracle, every single expert, and
// the NWS cumulative-MSE baseline:
//
//	larpredict -window 5 trace.csv
//	tracegen -vm VM2 -metric CPU_usedsec | larpredict -split 0.6 -
//
// The input is a two-column "timestamp,value" CSV, as produced by tracegen.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	larpredictor "github.com/acis-lab/larpredictor"
	"github.com/acis-lab/larpredictor/internal/nws"
	"github.com/acis-lab/larpredictor/internal/timeseries"
)

func main() {
	var (
		window   = flag.Int("window", 5, "prediction window size m")
		k        = flag.Int("k", 3, "nearest neighbors voting")
		pcaDim   = flag.Int("pca", 2, "PCA components n (0 disables PCA)")
		split    = flag.Float64("split", 0.5, "fraction of samples used for training")
		extended = flag.Bool("extended", false, "use the 8-expert extended pool")
		forecast = flag.Bool("forecast", false, "print a one-step forecast from the trailing window instead of evaluating")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: larpredict [flags] <trace.csv | ->")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if err := run(os.Stdout, flag.Arg(0), *window, *k, *pcaDim, *split, *extended, *forecast); err != nil {
		fmt.Fprintln(os.Stderr, "larpredict:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, path string, window, k, pcaDim int, split float64, extended, forecast bool) error {
	var in io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	series, err := timeseries.ReadCSV(in)
	if err != nil {
		return err
	}
	if err := series.Validate(); err != nil {
		return err
	}

	cfg := larpredictor.DefaultConfig(window)
	cfg.K = k
	if pcaDim == 0 {
		cfg.DisablePCA = true
	} else {
		cfg.PCAComponents = pcaDim
	}
	if extended {
		if cfg.Pool, err = larpredictor.BuildPool(window, larpredictor.TierExtended); err != nil {
			return err
		}
	}
	p, err := larpredictor.New(cfg)
	if err != nil {
		return err
	}

	sp, err := timeseries.SplitFraction(series.Values, split)
	if err != nil {
		return err
	}
	if err := p.Train(sp.Train); err != nil {
		return err
	}

	if forecast {
		pred, err := p.Forecast(series.Values[len(series.Values)-window:])
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "forecast for %s at %s: %.6g (expert %s)\n",
			series.Name, series.TimeAt(series.Len()-1).Add(series.Interval), pred.Value, pred.SelectedName)
		return nil
	}

	res, err := p.Evaluate(sp.Test)
	if err != nil {
		return err
	}

	// NWS baseline over the same test frames.
	norm := p.Normalizer()
	trainFrames, err := timeseries.FrameSeries(norm.Apply(sp.Train), window)
	if err != nil {
		return err
	}
	testFrames, err := timeseries.FrameSeries(norm.Apply(sp.Test), window)
	if err != nil {
		return err
	}
	sel, err := nws.NewCumulativeMSE(p.Pool())
	if err != nil {
		return err
	}
	if _, err := sel.Run(trainFrames); err != nil {
		return err
	}
	nwsRes, err := sel.Run(testFrames)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "trace %s: %d samples, trained on %d, evaluated on %d frames\n",
		series.Name, series.Len(), len(sp.Train), res.N)
	fmt.Fprintf(out, "  normalized MSE: LAR %.4f | P-LAR (oracle) %.4f | NWS Cum.MSE %.4f\n",
		res.LARMSE, res.OracleMSE, nwsRes.MSE)
	for i, name := range p.Pool().Names() {
		fmt.Fprintf(out, "  expert %-10s %.4f\n", name, res.ExpertMSE[i])
	}
	fmt.Fprintf(out, "  best-expert forecasting accuracy: %.2f%%\n", 100*res.ForecastAccuracy)
	return nil
}
