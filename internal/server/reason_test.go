package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/acis-lab/larpredictor/internal/engine"
)

// errorCode returns the error envelope's code from a response body.
func errorCode(t *testing.T, body []byte) string {
	t.Helper()
	var env ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("body %s is not an error envelope: %v", body, err)
	}
	return env.Error.Code
}

// TestDrain503Reason checks the shutdown-path 503 carries code "draining"
// and its distinct body, on both ingest and the readiness probe.
func TestDrain503Reason(t *testing.T) {
	env := newTestServer(t, engine.Config{Shards: 1}, Config{})
	env.srv.draining.Store(true)

	resp, body := postJSON(t, env.ts.URL+"/v1/ingest", IngestRequest{Stream: "s", Value: 1})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining ingest = %d, want 503", resp.StatusCode)
	}
	if got := errorCode(t, body); got != CodeDraining {
		t.Errorf("error code = %q, want %q", got, CodeDraining)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("drain 503 without Retry-After")
	}
	if !strings.Contains(string(body), "draining") {
		t.Errorf("drain body = %s, want mention of draining", body)
	}

	hresp, err := http.Get(env.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable || errorCode(t, hbody) != CodeDraining {
		t.Errorf("healthz during drain: status %d body %s, want 503 with code %q", hresp.StatusCode, hbody, CodeDraining)
	}
}

// TestShed503Reason pins the lone in-flight slot on a blocked ingest and
// checks the admission-control 503 carries code "shed".
func TestShed503Reason(t *testing.T) {
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

	for ts := 1; ts <= 2; ts++ {
		if resp, _ := postJSON(t, env.ts.URL+"/v1/ingest",
			IngestRequest{Stream: "s", TS: int64(ts), Value: 1}); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("setup ingest %d failed", ts)
		}
	}
	<-started
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Post(env.ts.URL+"/v1/ingest", "application/json",
			strings.NewReader(`{"stream":"s","ts":3,"value":3}`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitFor(t, func() bool { return len(env.srv.sem) == 1 })

	resp, body := postJSON(t, env.ts.URL+"/v1/ingest", IngestRequest{Stream: "s", TS: 4, Value: 4})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed status = %d, want 503: %s", resp.StatusCode, body)
	}
	if got := errorCode(t, body); got != CodeShed {
		t.Errorf("error code = %q, want %q", got, CodeShed)
	}
	if !strings.Contains(string(body), "capacity") {
		t.Errorf("shed body = %s, want mention of capacity", body)
	}

	gate <- struct{}{}
	gate <- struct{}{}
	gate <- struct{}{}
	wg.Wait()
}

// TestTimeout503Reason parks an ingest on a full Block-policy queue and
// checks the deadline 503 carries code "timeout".
func TestTimeout503Reason(t *testing.T) {
	gate := make(chan struct{})
	env := newTestServer(t, engine.Config{
		Shards:     1,
		QueueDepth: 1,
		MaxBatch:   1,
		Policy:     engine.Block,
		StepHook:   func(string) { <-gate },
	}, Config{RequestTimeout: 50 * time.Millisecond})
	defer close(gate)

	for ts := 1; ts <= 2; ts++ {
		if resp, _ := postJSON(t, env.ts.URL+"/v1/ingest",
			IngestRequest{Stream: "s", TS: int64(ts), Value: 1}); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("setup ingest %d failed", ts)
		}
	}
	resp, body := postJSON(t, env.ts.URL+"/v1/ingest", IngestRequest{Stream: "s", TS: 3, Value: 1})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("timed-out ingest = %d, want 503: %s", resp.StatusCode, body)
	}
	if got := errorCode(t, body); got != CodeTimeout {
		t.Errorf("error code = %q, want %q", got, CodeTimeout)
	}
	if !strings.Contains(string(body), "timed out") {
		t.Errorf("timeout body = %s, want mention of timing out", body)
	}
	gate <- struct{}{}
	gate <- struct{}{}
	gate <- struct{}{}
}

// TestTimeoutMiddlewarePassesThrough confirms a fast request is served
// unchanged through the custom timeout middleware (headers, code, body).
func TestTimeoutMiddlewarePassesThrough(t *testing.T) {
	env := newTestServer(t, engine.Config{Shards: 1}, Config{RequestTimeout: 2 * time.Second})
	resp, body := postJSON(t, env.ts.URL+"/v1/ingest", IngestRequest{Stream: "s", TS: 1, Value: 1})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fast ingest through timeout middleware = %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", got)
	}
	var ir IngestResponse
	if err := json.Unmarshal(body, &ir); err != nil || ir.Accepted != 1 {
		t.Errorf("body = %s (%v), want accepted 1", body, err)
	}
}

// TestIngestHookDedupAndApplied exercises the durability hook contract: the
// hook's dedup count surfaces in the response, and the Applied hook
// populates forecast documents.
func TestIngestHookDedupAndApplied(t *testing.T) {
	dedup := NewDedup()
	var mu sync.Mutex
	var sawKeys []KeyedSample
	var envp *testServer
	cfg := Config{
		Ingest: func(batch []KeyedSample) (int, int, error) {
			mu.Lock()
			sawKeys = append(sawKeys, batch...)
			mu.Unlock()
			fresh := make([]engine.Sample, 0, len(batch))
			deduped := 0
			for _, ks := range batch {
				if ks.Source != "" && ks.Seq != 0 && !dedup.Apply(ks.ID, ks.Source, ks.Seq) {
					deduped++
					continue
				}
				fresh = append(fresh, ks.Sample)
			}
			n, err := envp.eng.IngestBatch(fresh)
			return n, deduped, err
		},
		Applied: dedup.Applied,
	}
	envp = newTestServer(t, engine.Config{Shards: 1}, cfg)

	req := IngestRequest{Source: "src-1", Samples: []IngestSample{
		{Stream: "s", TS: 1, Value: 1, Seq: 1},
		{Stream: "s", TS: 2, Value: 2, Seq: 2},
	}}
	resp, body := postJSON(t, envp.ts.URL+"/v1/ingest", req)
	var ir IngestResponse
	if err := json.Unmarshal(body, &ir); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("keyed ingest: status %d body %s (%v)", resp.StatusCode, body, err)
	}
	if ir.Accepted != 2 || ir.Deduped != 0 {
		t.Errorf("first send accepted/deduped = %d/%d, want 2/0", ir.Accepted, ir.Deduped)
	}

	// Resend the identical batch: applied exactly once, acked as deduped.
	resp, body = postJSON(t, envp.ts.URL+"/v1/ingest", req)
	if err := json.Unmarshal(body, &ir); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("retried ingest: status %d body %s (%v)", resp.StatusCode, body, err)
	}
	if ir.Accepted != 0 || ir.Deduped != 2 {
		t.Errorf("retry accepted/deduped = %d/%d, want 0/2", ir.Accepted, ir.Deduped)
	}

	mu.Lock()
	if len(sawKeys) != 4 || sawKeys[0].Source != "src-1" || sawKeys[1].Seq != 2 {
		t.Errorf("hook saw keys %+v", sawKeys)
	}
	mu.Unlock()

	envp.eng.Drain()
	var fr ForecastResponse
	if resp := getJSON(t, envp.ts.URL+"/v1/forecast/s", &fr); resp.StatusCode != http.StatusOK {
		t.Fatalf("forecast status %d", resp.StatusCode)
	}
	if fr.Applied != 2 {
		t.Errorf("forecast applied = %d, want 2", fr.Applied)
	}
}
