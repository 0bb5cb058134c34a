package client

import (
	"context"
	"net/http/httptest"
	"testing"

	"github.com/acis-lab/larpredictor/internal/core"
	"github.com/acis-lab/larpredictor/internal/engine"
	"github.com/acis-lab/larpredictor/internal/server"
)

// TestReadsEscapeStreamIDs: Forecast and History reach exactly the stream
// they name through a real server's {stream...} route, whatever URL
// metacharacters the ID holds. The decoys are what an unescaped "cpu?x"
// and "cpu%41" would fetch instead, and the stream whose history path
// "x/history" would read as. The stream named history must not read as
// a history path either.
func TestReadsEscapeStreamIDs(t *testing.T) {
	ids := []string{"cpu?x", "cpu#1", "cpu%41", "a b", "VM2/CPU_usedsec", "x/history", "history"}
	decoys := []string{"cpu", "cpuA", "x"}
	cache := server.NewResultCache()
	hist, err := server.NewHistoryStore(server.HistoryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(engine.Config{
		NewStream: func(string) (*core.Online, error) {
			return core.NewOnline(core.OnlineConfig{Predictor: core.DefaultConfig(5), TrainSize: 20, AuditWindow: 6})
		},
		OnResult: func(r engine.Result) { cache.Record(r); hist.Record(r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var samples []engine.Sample
	for i, id := range append(append([]string(nil), ids...), decoys...) {
		samples = append(samples, engine.Sample{ID: id, TS: 1, Value: float64(i)})
	}
	if _, err := eng.IngestBatch(samples); err != nil {
		t.Fatal(err)
	}
	eng.Drain()
	srv, err := server.New(server.Config{Engine: eng, Cache: cache, History: hist})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	c := newTestClient(t, ts.URL, nil)
	for i, id := range ids {
		fr, err := c.Forecast(context.Background(), id)
		if err != nil {
			t.Fatalf("Forecast(%q): %v", id, err)
		}
		if fr.Stream != id || fr.LastValue != float64(i) {
			t.Errorf("Forecast(%q) served stream %q with last value %v", id, fr.Stream, fr.LastValue)
		}
		hr, err := c.History(context.Background(), id, HistoryQuery{})
		if err != nil {
			t.Fatalf("History(%q): %v", id, err)
		}
		if hr.Stream != id || len(hr.Entries) != 1 || hr.Entries[0].Actual != float64(i) {
			t.Errorf("History(%q) served stream %q with %+v", id, hr.Stream, hr.Entries)
		}
	}
}
