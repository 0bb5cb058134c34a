package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/acis-lab/larpredictor/internal/core"
	"github.com/acis-lab/larpredictor/internal/engine"
)

// benchReadEnv builds a server with nStreams trained streams (30 samples
// each, past the 20-sample train size) and returns it with the stream names.
func benchReadEnv(b *testing.B, nStreams int) (*testServer, []string) {
	b.Helper()
	env := newTestServer(b, engine.Config{Shards: 4}, Config{})
	names := make([]string, nStreams)
	for i := range names {
		names[i] = fmt.Sprintf("bench/s%03d", i)
	}
	const samples = 30
	for s := 1; s <= samples; s++ {
		req := IngestRequest{Samples: make([]IngestSample, 0, nStreams)}
		for _, n := range names {
			req.Samples = append(req.Samples,
				IngestSample{Stream: n, TS: int64(s), Value: signal(s)})
		}
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		rec := httptest.NewRecorder()
		env.srv.Handler().ServeHTTP(rec,
			httptest.NewRequest("POST", "/v1/ingest", bytes.NewReader(body)))
		if rec.Code != http.StatusAccepted {
			b.Fatalf("ingest status = %d: %s", rec.Code, rec.Body.String())
		}
	}
	for _, n := range names {
		n := n
		waitFor(b, func() bool { return env.hist.Seq(n) == samples })
	}
	return env, names
}

// BenchmarkForecastReadQPS is the read-path regression gate (see CI's
// bench-regression job): single-stream forecast GETs, a 100-stream bulk
// read, and the conditional-get hit path where If-None-Match short-circuits
// the response body.
func BenchmarkForecastReadQPS(b *testing.B) {
	get := func(h http.Handler, url, etag string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("GET", url, nil)
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	b.Run("single", func(b *testing.B) {
		env, names := benchReadEnv(b, 16)
		h := env.srv.Handler()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rec := get(h, "/v1/forecast/"+names[i%len(names)], ""); rec.Code != http.StatusOK {
				b.Fatalf("status = %d", rec.Code)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	})

	b.Run("bulk100", func(b *testing.B) {
		env, names := benchReadEnv(b, 100)
		h := env.srv.Handler()
		url := "/v1/forecasts?streams=" + strings.Join(names, ",")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rec := get(h, url, ""); rec.Code != http.StatusOK {
				b.Fatalf("status = %d", rec.Code)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	})

	b.Run("conditional", func(b *testing.B) {
		env, names := benchReadEnv(b, 100)
		h := env.srv.Handler()
		url := "/v1/forecasts?streams=" + strings.Join(names, ",")
		etag := get(h, url, "").Header().Get("ETag")
		if etag == "" {
			b.Fatal("bulk response carries no ETag")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rec := get(h, url, etag); rec.Code != http.StatusNotModified {
				b.Fatalf("status = %d, want 304", rec.Code)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	})
}

// BenchmarkHistoryRecord guards the ingest-side cost of the history ring:
// recording one engine result must stay allocation-free.
func BenchmarkHistoryRecord(b *testing.B) {
	h, err := NewHistoryStore(HistoryConfig{})
	if err != nil {
		b.Fatal(err)
	}
	r := engine.Result{Sample: engine.Sample{ID: "s", TS: 1, Value: 10}}
	h.Record(r) // register the stream outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Sample.TS = int64(i + 2)
		h.Record(r)
	}
}

// BenchmarkHistoryRecordStreams records the way the daemon does after
// predictload's warm-up: 5,000 streams round robin under its history config
// (-history-raw 64 -history-tiers 16x32,256x8), each past 60 failed
// warm-up steps, with forecasts by a 12-expert roster. So every Record
// looks its expert up in the name table and touches a cold stream.
func BenchmarkHistoryRecordStreams(b *testing.B) {
	const streams, warmup = 5000, 60
	h, err := NewHistoryStore(HistoryConfig{RawRows: 64, Tiers: []HistoryTier{{Steps: 16, Rows: 32}, {Steps: 256, Rows: 8}}})
	if err != nil {
		b.Fatal(err)
	}
	results := make([]engine.Result, streams)
	for i := range results {
		results[i] = engine.Result{Sample: engine.Sample{ID: fmt.Sprintf("vm%04d/cpu", i)}, Err: core.ErrNotReady}
	}
	for step := 1; step <= warmup; step++ {
		for i := range results {
			results[i].TS, results[i].Value = int64(step), float64(step%17)
			h.Record(results[i])
		}
	}
	for i := range results {
		results[i].Err = nil
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &results[i%streams]
		r.TS++
		r.Value = float64(i % 23)
		r.Pred = core.Prediction{Value: float64(i % 19), StdEstimate: 0.5, SelectedName: historyExperts[i%len(historyExperts)]}
		h.Record(*r)
	}
}
