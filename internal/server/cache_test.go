package server

import (
	"errors"
	"sync"
	"testing"

	"github.com/acis-lab/larpredictor/internal/core"
	"github.com/acis-lab/larpredictor/internal/engine"
)

// TestResultFanoutZeroAlloc feeds predictd's OnResult pair — the result
// cache, then the history rings, at predictd's default history config — a
// warm stream whose rings are all full, and requires the pair to allocate
// nothing per result: a forecast, a warm-up error and a failed step alike.
func TestResultFanoutZeroAlloc(t *testing.T) {
	cache := NewResultCache()
	hist := newHistory(t, HistoryConfig{})
	onResult := func(r engine.Result) {
		cache.Record(r)
		hist.Record(r)
	}
	warm := hist.Config().RawRows
	for _, tier := range hist.Config().Tiers {
		warm = max(warm, tier.Steps*(tier.Rows+1))
	}
	ts := int64(0)
	for ; ts < int64(warm); ts++ {
		onResult(histResult("VM2/CPU", ts+1, float64(ts%17), float64(ts%5), "AR", ts < 60))
	}
	for _, c := range []struct {
		name string
		err  error
	}{{"forecast", nil}, {"warm-up", core.ErrNotReady}, {"failed", core.ErrFailed}} {
		allocs := testing.AllocsPerRun(1000, func() {
			ts++
			r := histResult("VM2/CPU", ts, float64(ts%17), 3, "AR", false)
			if c.err != nil {
				r.Pred, r.Err = core.Prediction{}, c.err
			}
			onResult(r)
		})
		if allocs != 0 {
			t.Errorf("%s: cache+history fan-out allocates %.2f objects per result, want 0", c.name, allocs)
		}
	}
	s, ok := cache.Latest("VM2/CPU")
	if !ok || s.LastTS != ts || s.LastErr != core.ErrFailed.Error() || !s.HasPred {
		t.Fatalf("latest snapshot %+v after ts %d", s, ts)
	}
}

// TestResultCacheRecord pins Record's folding: an error keeps the previous
// forecast and records the error text; a forecast clears the error.
func TestResultCacheRecord(t *testing.T) {
	c := NewResultCache()
	if _, ok := c.Latest("s"); ok {
		t.Fatal("unknown stream reported")
	}
	c.Record(engine.Result{Sample: engine.Sample{ID: "s", TS: 1, Value: 5}, Err: core.ErrNotReady})
	if s, _ := c.Latest("s"); s.HasPred || s.LastErr != core.ErrNotReady.Error() || s.LastTS != 1 {
		t.Fatalf("after warm-up step: %+v", s)
	}
	pred := core.Prediction{Value: 7, Source: core.SourceLAR}
	c.Record(engine.Result{Sample: engine.Sample{ID: "s", TS: 2, Value: 6}, Pred: pred, Health: core.Healthy})
	c.Record(engine.Result{Sample: engine.Sample{ID: "s", TS: 3, Value: 8}, Err: errors.New("boom"), Health: core.Degraded})
	want := Snapshot{LastTS: 3, LastValue: 8, Health: core.Degraded, LastErr: "boom", Pred: pred, PredTS: 2, HasPred: true}
	if s, _ := c.Latest("s"); s != want {
		t.Fatalf("after error step: %+v, want %+v", s, want)
	}
	c.Record(engine.Result{Sample: engine.Sample{ID: "s", TS: 4, Value: 9}, Pred: pred})
	if s, _ := c.Latest("s"); s.LastErr != "" || s.PredTS != 4 {
		t.Fatalf("after recovery: %+v", s)
	}
	c.Restore("t", want)
	n := 0
	c.Each(func(id string, s Snapshot) {
		n++
		if id == "t" && s != want {
			t.Errorf("restored %+v, want %+v", s, want)
		}
	})
	if n != 2 {
		t.Fatalf("Each visited %d streams, want 2", n)
	}
}

// TestResultCacheReadsAreWhole runs readers against a writer that updates
// one stream in place; every snapshot a reader copies out must be one the
// writer recorded whole (run it with -race).
func TestResultCacheReadsAreWhole(t *testing.T) {
	c := NewResultCache()
	c.Record(engine.Result{Sample: engine.Sample{ID: "s", TS: 0}, Pred: core.Prediction{Value: 0}})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	check := func(s Snapshot) {
		if float64(s.LastTS) != s.LastValue || s.PredTS != s.LastTS || s.Pred.Value != -s.LastValue {
			t.Errorf("torn snapshot %+v", s)
		}
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s, _ := c.Latest("s")
				check(s)
				c.Each(func(_ string, s Snapshot) { check(s) })
			}
		}()
	}
	for ts := int64(1); ts <= 20000; ts++ {
		c.Record(engine.Result{Sample: engine.Sample{ID: "s", TS: ts, Value: float64(ts)}, Pred: core.Prediction{Value: -float64(ts)}})
	}
	close(stop)
	wg.Wait()
}
