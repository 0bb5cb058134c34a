package core

import (
	"math"
	"runtime"
	"testing"

	"github.com/acis-lab/larpredictor/internal/tournament"
)

// TestOnlineFootprint bounds the heap one trained Online holds, over 500
// streams configured like predictd's defaults (window 5, 60 training
// samples, tournament and drift tiers) after 80 samples each. The k-NN
// training set is held once, in the classifier's flat point array; keeping
// a second per-point copy in the predictor would push this past the bound.
func TestOnlineFootprint(t *testing.T) {
	const streams, steps, maxBytes = 500, 80, 7100
	cfg := OnlineConfig{
		Predictor:    DefaultConfig(5),
		TrainSize:    60,
		AuditWindow:  12,
		MSEThreshold: 2.0,
		Tournament:   &tournament.Config{},
		Drift:        &tournament.DriftConfig{},
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	online := make([]*Online, streams)
	for i := range online {
		o, err := NewOnline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < steps; j++ {
			o.Step(10 + 3*math.Sin(float64(i+j)/7) + 0.1*float64((i*j)%5))
		}
		if !o.Trained() {
			t.Fatalf("stream %d not trained after %d samples", i, steps)
		}
		online[i] = o
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(online)
	perStream := (after.HeapAlloc - before.HeapAlloc) / streams
	t.Logf("%d B per trained Online", perStream)
	if perStream > maxBytes {
		t.Errorf("%d heap bytes per trained Online, want <= %d", perStream, maxBytes)
	}
}
