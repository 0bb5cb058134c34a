package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/acis-lab/larpredictor/internal/core"
	"github.com/acis-lab/larpredictor/internal/engine"
	"github.com/acis-lab/larpredictor/internal/server"
)

// counts returns how many samples of each stream the given batches carry.
func counts(n int, batches ...[]batch) []int32 {
	c := make([]int32, n)
	for _, bs := range batches {
		for _, b := range bs {
			for _, s := range b.samples {
				c[s.stream]++
			}
		}
	}
	return c
}

// serveFed runs an in-process engine and server fed with the plan's warm-up
// and open-loop samples, after mutate has had its way with the sample
// order, and returns the server's base URL.
func serveFed(t *testing.T, p *plan, mutate func([]engine.Sample) []engine.Sample) string {
	t.Helper()
	hist, err := server.NewHistoryStore(historyConfig)
	if err != nil {
		t.Fatal(err)
	}
	cache := server.NewResultCache()
	eng, err := engine.New(engine.Config{
		NewStream: func(string) (*core.Online, error) { return newReference() },
		OnResult:  func(r engine.Result) { cache.Record(r); hist.Record(r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	var samples []engine.Sample
	for _, bs := range [][]batch{p.warm[0], p.warm[1], p.open} {
		for _, b := range bs {
			for _, s := range b.samples {
				st := &p.streams[s.stream]
				samples = append(samples, engine.Sample{ID: st.id, TS: int64(s.k) + 1, Value: st.value(s.k)})
			}
		}
	}
	if _, err := eng.IngestBatch(mutate(samples)); err != nil {
		t.Fatal(err)
	}
	eng.Drain()
	srv, err := server.New(server.Config{Engine: eng, Cache: cache, History: hist})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

func TestVerifierRejectsBrokenState(t *testing.T) {
	sz := sizes{streams: 20, batch: batchSize, segments: 1, segFor: time.Second, rate: 2000, readRate: 10}
	p := newPlan(11, sz)
	acked := counts(len(p.streams), p.warm[0], p.warm[1], p.open)
	refs, err := references(p, acked)
	if err != nil {
		t.Fatal(err)
	}
	want := expectation{acked: acked, processed: acked, refs: refs, allSeqs: true}
	victim := p.streams[0].id // the hottest stream
	// positions returns the indexes of the victim's samples.
	positions := func(s []engine.Sample) []int {
		var at []int
		for i := range s {
			if s[i].ID == victim {
				at = append(at, i)
			}
		}
		return at
	}
	for _, tc := range []struct {
		name   string
		mutate func([]engine.Sample) []engine.Sample
		reject string // "" when the state must verify
	}{
		{"intact", func(s []engine.Sample) []engine.Sample { return s }, ""},
		{"dropped sample", func(s []engine.Sample) []engine.Sample {
			i := positions(s)[warmPerStream]
			return append(s[:i:i], s[i+1:]...)
		}, "history seq"},
		{"duplicated sample", func(s []engine.Sample) []engine.Sample {
			i := positions(s)[warmPerStream]
			return append(s[:i+1:i+1], s[i:]...)
		}, "history seq"},
		{"swapped pair", func(s []engine.Sample) []engine.Sample {
			at := positions(s)
			for j := len(at) - 1; j > 0; j-- {
				a, b := at[j-1], at[j]
				if s[a].Value != s[b].Value {
					s[a].Value, s[b].Value = s[b].Value, s[a].Value
					return s
				}
			}
			t.Fatal("no pair of distinct values to swap")
			return s
		}, "holds value"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := serveFed(t, p, tc.mutate)
			err := verifyState(context.Background(), []*http.Client{http.DefaultClient}, base, p, want)
			switch {
			case tc.reject == "" && err != nil:
				t.Fatalf("intact state rejected: %v", err)
			case tc.reject != "" && err == nil:
				t.Fatal("broken state verified")
			case tc.reject != "" && !(strings.Contains(err.Error(), victim) && strings.Contains(err.Error(), tc.reject)):
				t.Fatalf("rejected for the wrong reason (want %q on %s): %v", tc.reject, victim, err)
			}
		})
	}
}
