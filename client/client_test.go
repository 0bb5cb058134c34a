package client

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/acis-lab/larpredictor/internal/obs"
)

func newTestClient(t *testing.T, url string, mut func(*Config)) *Client {
	t.Helper()
	cfg := Config{
		BaseURL:        url,
		Source:         "test-src",
		RequestTimeout: 2 * time.Second,
		BaseBackoff:    time.Millisecond,
		MaxBackoff:     5 * time.Millisecond,
		Seed:           1,
	}
	if mut != nil {
		mut(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewRequiresBaseURL(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without BaseURL succeeded")
	}
}

// TestRetryUntilSuccess: two 503s (with Retry-After and code "shed"), then a
// 202 — the client retries through, the caller sees only success, and the
// retry metric carries the server's reason label.
func TestRetryUntilSuccess(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, `{"error":{"code":"shed","message":"server at capacity"}}`)
			return
		}
		var req IngestRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Source != "test-src" {
			t.Errorf("bad request: %+v (%v)", req, err)
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(IngestResponse{Accepted: len(req.Samples)})
	}))
	defer ts.Close()

	reg := obs.NewRegistry()
	c := newTestClient(t, ts.URL, func(cfg *Config) { cfg.Metrics = reg })
	resp, err := c.Ingest(context.Background(), []Sample{{Stream: "s", TS: 1, Value: 1, Seq: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 1 || calls.Load() != 3 {
		t.Errorf("accepted %d after %d calls, want 1 after 3", resp.Accepted, calls.Load())
	}
	var prom strings.Builder
	if err := reg.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), `predictclient_retries_total{reason="shed"} 2`) {
		t.Errorf("metrics missing shed retries:\n%s", prom.String())
	}
}

// TestTerminal400NoRetry: a 4xx is the caller's bug; exactly one request
// goes out and the status surfaces.
func TestTerminal400NoRetry(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"empty stream id"}`, http.StatusBadRequest)
	}))
	defer ts.Close()

	c := newTestClient(t, ts.URL, nil)
	_, err := c.Ingest(context.Background(), []Sample{{Value: 1}})
	var serr *StatusError
	if !errors.As(err, &serr) || serr.Code != http.StatusBadRequest {
		t.Fatalf("err = %v, want StatusError 400", err)
	}
	if calls.Load() != 1 {
		t.Errorf("400 was retried: %d calls", calls.Load())
	}
}

// TestMaxAttemptsExhausted: a permanently failing server consumes exactly
// MaxAttempts requests, and the final error wraps the last failure.
func TestMaxAttemptsExhausted(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c := newTestClient(t, ts.URL, func(cfg *Config) { cfg.MaxAttempts = 3 })
	_, err := c.Ingest(context.Background(), []Sample{{Stream: "s", Value: 1}})
	var serr *StatusError
	if !errors.As(err, &serr) || serr.Code != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want wrapped 503", err)
	}
	if calls.Load() != 3 {
		t.Errorf("%d calls, want 3", calls.Load())
	}
}

// TestPerAttemptDeadline: a hung server trips the per-attempt timeout, not
// a client hang; the caller's context is still honored for the loop.
func TestPerAttemptDeadline(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer ts.Close()
	defer close(release) // before ts.Close, which waits on the handlers

	c := newTestClient(t, ts.URL, func(cfg *Config) {
		cfg.RequestTimeout = 30 * time.Millisecond
		cfg.MaxAttempts = 2
	})
	start := time.Now()
	_, err := c.Ingest(context.Background(), []Sample{{Stream: "s", Value: 1}})
	if err == nil {
		t.Fatal("hung server ingest succeeded")
	}
	if e := time.Since(start); e > 2*time.Second {
		t.Errorf("deadline did not bound the attempt: %v", e)
	}
}

// TestCallerContextStopsRetries: when the caller's own ctx dies mid-loop,
// the error is the ctx error, not a retry classification.
func TestCallerContextStopsRetries(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c := newTestClient(t, ts.URL, func(cfg *Config) {
		cfg.MaxAttempts = -1 // unlimited
		cfg.BaseBackoff = 10 * time.Millisecond
		cfg.MaxBackoff = 10 * time.Millisecond
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := c.Ingest(ctx, []Sample{{Stream: "s", Value: 1}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want caller deadline", err)
	}
}

// TestBackoffJitterAndFloor pins the schedule's two invariants: the sleep
// never exceeds min(MaxBackoff, BaseBackoff<<attempt), and Retry-After
// floors it.
func TestBackoffJitterAndFloor(t *testing.T) {
	c := newTestClient(t, "http://unused", func(cfg *Config) {
		cfg.BaseBackoff = 10 * time.Millisecond
		cfg.MaxBackoff = 80 * time.Millisecond
	})
	for attempt := 0; attempt < 10; attempt++ {
		ceil := 10 * time.Millisecond << uint(attempt)
		if ceil > 80*time.Millisecond || ceil <= 0 {
			ceil = 80 * time.Millisecond
		}
		for i := 0; i < 50; i++ {
			if d := c.backoff(attempt, 0); d < 0 || d > ceil {
				t.Fatalf("attempt %d: backoff %v outside [0, %v]", attempt, d, ceil)
			}
		}
	}
	if d := c.backoff(0, 3*time.Second); d < 3*time.Second {
		t.Errorf("Retry-After floor ignored: %v", d)
	}
}

// TestParseRetryAfter covers both forms RFC 9110 §10.2.3 allows —
// delay-seconds and HTTP-date — plus garbage, which must parse as no floor.
func TestParseRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want time.Duration
	}{
		{"", 0}, {"2", 2 * time.Second}, {" 120 ", 120 * time.Second},
		{"0", 0}, {"-1", 0},
		// HTTP-dates in the past (all three RFC 9110 formats) floor at zero.
		{"Wed, 21 Oct 2015 07:28:00 GMT", 0},
		{"Wednesday, 21-Oct-15 07:28:00 GMT", 0},
		{"Wed Oct 21 07:28:00 2015", 0},
		// Garbage: not seconds, not a date.
		{"soon", 0}, {"12.5", 0}, {"2s", 0}, {"Wed, 21 Oct", 0}, {"\x00", 0},
	} {
		if got := parseRetryAfter(tc.in); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}

	// A future HTTP-date yields roughly the time remaining until it.
	future := time.Now().Add(90 * time.Second).UTC().Format(http.TimeFormat)
	got := parseRetryAfter(future)
	if got < 85*time.Second || got > 91*time.Second {
		t.Errorf("parseRetryAfter(%q) = %v, want ~90s", future, got)
	}
}

// TestEndpointRotation: with two endpoints, the client sticks to the first
// until it fails, rotates to the second on a 503, and completes the request
// there within the same retry loop.
func TestEndpointRotation(t *testing.T) {
	var aCalls, bCalls atomic.Int32
	a := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		aCalls.Add(1)
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer a.Close()
	b := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		bCalls.Add(1)
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(IngestResponse{Accepted: 1})
	}))
	defer b.Close()

	c := newTestClient(t, a.URL, func(cfg *Config) {
		cfg.Endpoints = []string{b.URL}
	})
	resp, err := c.Ingest(context.Background(), []Sample{{Stream: "s", Value: 1, Seq: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 1 {
		t.Fatalf("accepted = %d, want 1", resp.Accepted)
	}
	if aCalls.Load() != 1 || bCalls.Load() != 1 {
		t.Fatalf("calls a=%d b=%d, want one failed attempt then one rotated success",
			aCalls.Load(), bCalls.Load())
	}
	// The preference stuck: the next request goes straight to b.
	if _, err := c.Ingest(context.Background(), []Sample{{Stream: "s", Value: 2, Seq: 2}}); err != nil {
		t.Fatal(err)
	}
	if aCalls.Load() != 1 {
		t.Fatalf("client went back to the failed endpoint (a=%d calls)", aCalls.Load())
	}
}

// TestRouteHintAdoption: a 2xx response carrying X-Predictd-Route re-pins
// the client to the endpoint serving that address.
func TestRouteHintAdoption(t *testing.T) {
	var aCalls, bCalls atomic.Int32
	b := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		bCalls.Add(1)
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(IngestResponse{Accepted: 1})
	}))
	defer b.Close()
	bAddr := strings.TrimPrefix(b.URL, "http://")
	a := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		aCalls.Add(1)
		// "Accepted here, but that node owns your streams."
		w.Header().Set(routeHeader, bAddr)
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(IngestResponse{Accepted: 1})
	}))
	defer a.Close()

	c := newTestClient(t, a.URL, func(cfg *Config) {
		cfg.Endpoints = []string{b.URL}
	})
	if _, err := c.Ingest(context.Background(), []Sample{{Stream: "s", Value: 1, Seq: 1}}); err != nil {
		t.Fatal(err)
	}
	if aCalls.Load() != 1 || bCalls.Load() != 0 {
		t.Fatalf("first request: calls a=%d b=%d, want it served at a", aCalls.Load(), bCalls.Load())
	}
	if _, err := c.Ingest(context.Background(), []Sample{{Stream: "s", Value: 2, Seq: 2}}); err != nil {
		t.Fatal(err)
	}
	if bCalls.Load() != 1 {
		t.Fatalf("second request ignored the route hint (a=%d b=%d)", aCalls.Load(), bCalls.Load())
	}
}

// TestHeadersApplied: configured headers ride on every request — the
// mechanism the cluster layer uses to mark forwarded/replicated batches.
func TestHeadersApplied(t *testing.T) {
	var got atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got.Store(r.Header.Get("X-Predictd-Cluster"))
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(IngestResponse{Accepted: 1})
	}))
	defer ts.Close()
	c := newTestClient(t, ts.URL, func(cfg *Config) {
		cfg.Headers = map[string]string{"X-Predictd-Cluster": "forward"}
	})
	if _, err := c.Ingest(context.Background(), []Sample{{Stream: "s", Value: 1, Seq: 1}}); err != nil {
		t.Fatal(err)
	}
	if got.Load() != "forward" {
		t.Fatalf("header = %v, want forward", got.Load())
	}
}

// TestForecast exercises the GET path and document decode.
func TestForecast(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/forecast/cpu" {
			t.Errorf("path = %s", r.URL.Path)
		}
		json.NewEncoder(w).Encode(ForecastResponse{Stream: "cpu", Health: "ok", Applied: 7})
	}))
	defer ts.Close()

	c := newTestClient(t, ts.URL, nil)
	fr, err := c.Forecast(context.Background(), "cpu")
	if err != nil {
		t.Fatal(err)
	}
	if fr.Stream != "cpu" || fr.Applied != 7 {
		t.Errorf("forecast = %+v", fr)
	}
}
