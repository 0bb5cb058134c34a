package client

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// ingestRecorder is a fake predictd that records every batch it acks and
// can be told to fail the first N requests.
type ingestRecorder struct {
	mu       sync.Mutex
	batches  [][]Sample
	failNext int
	ts       *httptest.Server
}

func newIngestRecorder(t *testing.T) *ingestRecorder {
	rec := &ingestRecorder{}
	rec.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req IngestRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("bad ingest body: %v", err)
		}
		rec.mu.Lock()
		defer rec.mu.Unlock()
		if rec.failNext > 0 {
			rec.failNext--
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, `{"error":{"code":"shed","message":"server at capacity"}}`)
			return
		}
		rec.batches = append(rec.batches, req.Samples)
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(IngestResponse{Accepted: len(req.Samples)})
	}))
	t.Cleanup(rec.ts.Close)
	return rec
}

func (rec *ingestRecorder) samples() []Sample {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var all []Sample
	for _, b := range rec.batches {
		all = append(all, b...)
	}
	return all
}

// TestIngesterAssignsDistinctSeqs: Adds flow out batched, every sample
// carrying a distinct monotonically-assigned seq, and Close flushes the
// tail.
func TestIngesterAssignsDistinctSeqs(t *testing.T) {
	rec := newIngestRecorder(t)
	c := newTestClient(t, rec.ts.URL, nil)
	ing := c.NewIngester(IngesterConfig{MaxBatch: 4, FlushInterval: time.Hour})
	const n = 10
	for i := 0; i < n; i++ {
		if err := ing.Add(context.Background(), Sample{Stream: "s", TS: int64(i), Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	got := rec.samples()
	if len(got) != n {
		t.Fatalf("server saw %d samples, want %d", len(got), n)
	}
	seen := map[uint64]bool{}
	for _, s := range got {
		if s.Seq == 0 || seen[s.Seq] {
			t.Errorf("seq %d zero or repeated", s.Seq)
		}
		seen[s.Seq] = true
	}
	if err := ing.Add(context.Background(), Sample{Stream: "s"}); err != ErrIngesterClosed {
		t.Errorf("Add after Close = %v, want ErrIngesterClosed", err)
	}
}

// TestIngesterRetryKeepsSeqs: the first request fails with a 503; the
// retried batch must carry the same seqs, so a WAL-mode server dedups it.
func TestIngesterRetryKeepsSeqs(t *testing.T) {
	rec := newIngestRecorder(t)
	rec.failNext = 1
	c := newTestClient(t, rec.ts.URL, nil)
	var acked [][]Sample
	var mu sync.Mutex
	ing := c.NewIngester(IngesterConfig{
		MaxBatch:      8,
		FlushInterval: time.Hour,
		OnAck: func(_ *IngestResponse, batch []Sample) {
			mu.Lock()
			acked = append(acked, append([]Sample(nil), batch...))
			mu.Unlock()
		},
	})
	for i := 0; i < 3; i++ {
		if err := ing.Add(context.Background(), Sample{Stream: "s", TS: int64(i), Value: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ing.Flush(context.Background()); err != nil {
		t.Fatalf("flush through one 503: %v", err)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	got := rec.samples()
	if len(got) != 3 {
		t.Fatalf("server saw %d samples, want 3", len(got))
	}
	for i, s := range got {
		if s.Seq != uint64(i+1) {
			t.Errorf("sample %d seq = %d, want %d (keys must survive retries)", i, s.Seq, i+1)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(acked) != 1 || len(acked[0]) != 3 {
		t.Errorf("OnAck saw %v", acked)
	}
}

// TestIngesterOnErrorHandsBackBatch: when retries are exhausted the batch —
// keys intact — is handed to OnError for the caller to re-submit.
func TestIngesterOnErrorHandsBackBatch(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	c := newTestClient(t, ts.URL, func(cfg *Config) { cfg.MaxAttempts = 2 })
	errs := make(chan []Sample, 1)
	ing := c.NewIngester(IngesterConfig{
		MaxBatch:      1,
		FlushInterval: time.Hour,
		OnError:       func(_ error, batch []Sample) { errs <- append([]Sample(nil), batch...) },
	})
	defer ing.Close()
	if err := ing.Add(context.Background(), Sample{Stream: "s", Value: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case batch := <-errs:
		if len(batch) != 1 || batch[0].Seq != 1 {
			t.Errorf("OnError batch = %+v", batch)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnError never called")
	}
}

// TestIngesterPeriodicFlush: without reaching MaxBatch, the interval alone
// pushes samples out.
func TestIngesterPeriodicFlush(t *testing.T) {
	rec := newIngestRecorder(t)
	c := newTestClient(t, rec.ts.URL, nil)
	ing := c.NewIngester(IngesterConfig{MaxBatch: 1000, FlushInterval: 10 * time.Millisecond})
	defer ing.Close()
	if err := ing.Add(context.Background(), Sample{Stream: "s", Value: 1}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(rec.samples()) == 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("periodic flush never fired")
}
