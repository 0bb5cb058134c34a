package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/acis-lab/larpredictor/internal/core"
	"github.com/acis-lab/larpredictor/internal/engine"
	"github.com/acis-lab/larpredictor/internal/obs"
)

// newOnline returns a predictor that trains after 20 samples, so tests reach
// real forecasts quickly.
func newOnline(t testing.TB) *core.Online {
	t.Helper()
	o, err := core.NewOnline(core.OnlineConfig{
		Predictor:   core.DefaultConfig(5),
		TrainSize:   20,
		AuditWindow: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// testServer bundles a server over a fresh engine with an httptest listener.
type testServer struct {
	eng   *engine.Engine
	cache *ResultCache
	hist  *HistoryStore
	srv   *Server
	ts    *httptest.Server
	reg   *obs.Registry
}

func newTestServer(t testing.TB, ecfg engine.Config, scfg Config) *testServer {
	t.Helper()
	reg := obs.NewRegistry()
	cache := NewResultCache()
	hist := scfg.History
	if hist == nil {
		var err error
		hist, err = NewHistoryStore(HistoryConfig{})
		if err != nil {
			t.Fatal(err)
		}
		scfg.History = hist
	}
	ecfg.Metrics = reg
	prev := ecfg.OnResult
	ecfg.OnResult = func(r engine.Result) {
		cache.Record(r)
		hist.Record(r)
		if prev != nil {
			prev(r)
		}
	}
	if ecfg.NewStream == nil {
		ecfg.NewStream = func(string) (*core.Online, error) { return newOnline(t), nil }
	}
	eng, err := engine.New(ecfg)
	if err != nil {
		t.Fatal(err)
	}
	scfg.Engine = eng
	scfg.Cache = cache
	scfg.Registry = reg
	srv, err := New(scfg)
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})
	return &testServer{eng: eng, cache: cache, hist: hist, srv: srv, ts: ts, reg: reg}
}

func signal(i int) float64 {
	return 10 + 3*math.Sin(float64(i)/7) + 0.1*float64(i%5)
}

func postJSON(t *testing.T, url string, doc any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func getJSON(t *testing.T, url string, doc any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if doc != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, doc); err != nil {
			t.Fatalf("decode %s: %v\n%s", url, err, body)
		}
	}
	return resp
}

func TestIngestSingleAndBatch(t *testing.T) {
	env := newTestServer(t, engine.Config{Shards: 2}, Config{})

	resp, body := postJSON(t, env.ts.URL+"/v1/ingest",
		IngestRequest{Stream: "web/1", TS: 1, Value: 10})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("single ingest status = %d: %s", resp.StatusCode, body)
	}
	var ir IngestResponse
	if err := json.Unmarshal(body, &ir); err != nil || ir.Accepted != 1 {
		t.Fatalf("single ingest response = %s (%v)", body, err)
	}

	batch := IngestRequest{}
	for i := 2; i <= 40; i++ {
		batch.Samples = append(batch.Samples,
			IngestSample{Stream: "web/1", TS: int64(i), Value: signal(i)},
			IngestSample{Stream: "web/2", TS: int64(i), Value: signal(i + 3)},
		)
	}
	resp, body = postJSON(t, env.ts.URL+"/v1/ingest", batch)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch ingest status = %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &ir); err != nil || ir.Accepted != len(batch.Samples) {
		t.Fatalf("batch ingest response = %s (%v)", body, err)
	}
	env.eng.Drain()

	var fr ForecastResponse
	if resp := getJSON(t, env.ts.URL+"/v1/forecast/web/1", &fr); resp.StatusCode != http.StatusOK {
		t.Fatalf("forecast status = %d", resp.StatusCode)
	}
	if fr.Stream != "web/1" || fr.LastTS != 40 {
		t.Errorf("forecast doc = %+v, want stream web/1 last_ts 40", fr)
	}
	if fr.Forecast == nil {
		t.Fatalf("no forecast after %d samples: %+v", 40, fr)
	}
	if fr.Forecast.Value <= 0 || math.IsNaN(fr.Forecast.Value) {
		t.Errorf("forecast value = %g", fr.Forecast.Value)
	}
	if fr.Health == "" || fr.Processed == 0 {
		t.Errorf("missing health/processed: %+v", fr)
	}

	if resp := getJSON(t, env.ts.URL+"/v1/forecast/nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown stream status = %d, want 404", resp.StatusCode)
	}
}

func TestIngestValidation(t *testing.T) {
	env := newTestServer(t, engine.Config{Shards: 1}, Config{MaxBodyBytes: 512})

	resp, err := http.Post(env.ts.URL+"/v1/ingest", "application/json",
		strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON status = %d, want 400", resp.StatusCode)
	}

	if resp, _ := postJSON(t, env.ts.URL+"/v1/ingest", IngestRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty request status = %d, want 400", resp.StatusCode)
	}

	bad := IngestRequest{Samples: []IngestSample{{Stream: "", Value: 1}}}
	if resp, _ := postJSON(t, env.ts.URL+"/v1/ingest", bad); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty stream status = %d, want 400", resp.StatusCode)
	}

	big := IngestRequest{}
	for i := 0; i < 100; i++ {
		big.Samples = append(big.Samples, IngestSample{Stream: "padpadpadpad", Value: 1})
	}
	if resp, _ := postJSON(t, env.ts.URL+"/v1/ingest", big); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body status = %d, want 413", resp.StatusCode)
	}

	resp, err = http.Get(env.ts.URL + "/v1/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET ingest status = %d, want 405", resp.StatusCode)
	}
}

// TestStreamsPagination pins the removal of offset paging: every ?offset=
// form answers 400 bad_request naming the cursor contract, so an old
// client fails loudly instead of re-reading the first page forever.
func TestStreamsPagination(t *testing.T) {
	env := newTestServer(t, engine.Config{Shards: 3}, Config{})
	for _, id := range []string{"a", "b", "c", "d", "e"} {
		if err := env.eng.Register(id, newOnline(t)); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{"offset=0", "offset=2&limit=2", "offset=-1", "offset=", "cursor=b&offset=1"} {
		resp, got := fetchEnvelope(t, "GET", env.ts.URL+"/v1/streams?"+q, "")
		if resp.StatusCode != http.StatusBadRequest || got.Error.Code != CodeBadRequest {
			t.Errorf("?%s = %d code %q, want 400 %q", q, resp.StatusCode, got.Error.Code, CodeBadRequest)
		}
		if !strings.Contains(got.Error.Message, "cursor") {
			t.Errorf("?%s message %q does not point at cursor paging", q, got.Error.Message)
		}
	}
	if resp := getJSON(t, env.ts.URL+"/v1/streams?limit=zero", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad limit status = %d, want 400", resp.StatusCode)
	}
}

// TestRejectBacklogMaps429 saturates a depth-1 queue behind a gated worker
// and checks the Reject policy surfaces as 429 + Retry-After.
func TestRejectBacklogMaps429(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 16)
	env := newTestServer(t, engine.Config{
		Shards:     1,
		QueueDepth: 1,
		MaxBatch:   1,
		Policy:     engine.Reject,
		StepHook: func(string) {
			started <- struct{}{}
			<-gate
		},
	}, Config{})
	defer close(gate)

	if resp, body := postJSON(t, env.ts.URL+"/v1/ingest",
		IngestRequest{Stream: "s", TS: 1, Value: 1}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first ingest = %d: %s", resp.StatusCode, body)
	}
	<-started // worker holds sample 1; queue empty
	if resp, body := postJSON(t, env.ts.URL+"/v1/ingest",
		IngestRequest{Stream: "s", TS: 2, Value: 2}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second ingest = %d: %s", resp.StatusCode, body)
	}

	resp, body := postJSON(t, env.ts.URL+"/v1/ingest",
		IngestRequest{Stream: "s", TS: 3, Value: 3})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated ingest status = %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	var ir IngestResponse
	if err := json.Unmarshal(body, &ir); err != nil || ir.Accepted != 0 || ir.Rejected != 1 {
		t.Errorf("429 body = %s (%v), want accepted 0 rejected 1", body, err)
	}
}

// TestAdmissionControlShedsExcess fills the in-flight semaphore with a
// request parked on a full Block-policy queue, then checks the next request
// is shed with 503 + Retry-After without touching the engine.
func TestAdmissionControlShedsExcess(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 16)
	env := newTestServer(t, engine.Config{
		Shards:     1,
		QueueDepth: 1,
		MaxBatch:   1,
		Policy:     engine.Block,
		StepHook: func(string) {
			started <- struct{}{}
			<-gate
		},
	}, Config{MaxInFlight: 1})
	defer close(gate)

	if resp, _ := postJSON(t, env.ts.URL+"/v1/ingest",
		IngestRequest{Stream: "s", TS: 1, Value: 1}); resp.StatusCode != http.StatusAccepted {
		t.Fatal("first ingest failed")
	}
	<-started
	if resp, _ := postJSON(t, env.ts.URL+"/v1/ingest",
		IngestRequest{Stream: "s", TS: 2, Value: 2}); resp.StatusCode != http.StatusAccepted {
		t.Fatal("second ingest failed")
	}

	// This one blocks inside the engine (queue full, Block policy), pinning
	// the lone in-flight slot.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Raw client call: t.Fatal must not fire from a non-test goroutine.
		resp, err := http.Post(env.ts.URL+"/v1/ingest", "application/json",
			strings.NewReader(`{"stream":"s","ts":3,"value":3}`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitFor(t, func() bool { return len(env.srv.sem) == 1 })

	resp, body := postJSON(t, env.ts.URL+"/v1/ingest",
		IngestRequest{Stream: "s", TS: 4, Value: 4})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity status = %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed request without Retry-After header")
	}
	// Probes and scrapes must bypass admission control.
	if resp := getJSON(t, env.ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz under load = %d, want 200", resp.StatusCode)
	}
	if resp := getJSON(t, env.ts.URL+"/metrics", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("metrics under load = %d, want 200", resp.StatusCode)
	}

	gate <- struct{}{}
	gate <- struct{}{}
	gate <- struct{}{}
	wg.Wait()
}

// TestRequestTimeout parks an ingest on a full Block-policy queue and checks
// the timeout middleware cuts it loose with 503.
func TestRequestTimeout(t *testing.T) {
	gate := make(chan struct{})
	env := newTestServer(t, engine.Config{
		Shards:     1,
		QueueDepth: 1,
		MaxBatch:   1,
		Policy:     engine.Block,
		StepHook:   func(string) { <-gate },
	}, Config{RequestTimeout: 50 * time.Millisecond})
	defer close(gate)

	for ts := 1; ts <= 2; ts++ { // one into the worker, one filling the queue
		if resp, _ := postJSON(t, env.ts.URL+"/v1/ingest",
			IngestRequest{Stream: "s", TS: int64(ts), Value: 1}); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("setup ingest %d failed", ts)
		}
	}
	resp, _ := postJSON(t, env.ts.URL+"/v1/ingest", IngestRequest{Stream: "s", TS: 3, Value: 1})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("timed-out ingest status = %d, want 503", resp.StatusCode)
	}
	gate <- struct{}{}
	gate <- struct{}{}
	gate <- struct{}{}
}

func TestDrainingFlipsHealthzAndIngest(t *testing.T) {
	env := newTestServer(t, engine.Config{Shards: 1}, Config{})
	if resp := getJSON(t, env.ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
	env.srv.draining.Store(true)
	if resp := getJSON(t, env.ts.URL+"/healthz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz = %d, want 503", resp.StatusCode)
	}
	resp, body := postJSON(t, env.ts.URL+"/v1/ingest", IngestRequest{Stream: "s", Value: 1})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining ingest = %d, want 503: %s", resp.StatusCode, body)
	}
	// Reads keep working during drain so late consumers resolve cleanly.
	if resp := getJSON(t, env.ts.URL+"/v1/streams", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("draining streams = %d, want 200", resp.StatusCode)
	}
}

func TestMetricsExposition(t *testing.T) {
	env := newTestServer(t, engine.Config{Shards: 1}, Config{})
	postJSON(t, env.ts.URL+"/v1/ingest", IngestRequest{Stream: "s", Value: 1})
	getJSON(t, env.ts.URL+"/v1/streams", nil)

	resp, err := http.Get(env.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`predictd_http_requests_total{endpoint="ingest",code="202"} 1`,
		`predictd_http_requests_total{endpoint="streams",code="200"} 1`,
		"predictd_http_request_seconds_bucket",
		"predictd_http_in_flight",
		"predictd_ingest_samples_accepted_total 1",
		"larpredictor_engine_ingested_total", // engine metrics share the registry
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestServerConfigValidation(t *testing.T) {
	eng, err := engine.New(engine.Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	cache := NewResultCache()
	bad := []Config{
		{},
		{Engine: eng},
		{Engine: eng, Cache: cache, MaxInFlight: -1},
		{Engine: eng, Cache: cache, RequestTimeout: -time.Second},
		{Engine: eng, Cache: cache, MaxBodyBytes: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// waitFor polls cond for up to two seconds.
func waitFor(t testing.TB, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within 2s")
}
