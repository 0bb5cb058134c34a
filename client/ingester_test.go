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

	"github.com/acis-lab/larpredictor/internal/wire"
)

// ingestRecorder is a fake predictd that records every batch it acks and
// can be told to fail the first N requests. With binary set it also serves
// the binary transport, failing with a Backlog ack where HTTP sends a 503.
type ingestRecorder struct {
	mu       sync.Mutex
	batches  [][]Sample
	failNext int
	ts       *httptest.Server
	binAddr  string
}

func newIngestRecorder(t *testing.T, binary bool) *ingestRecorder {
	rec := &ingestRecorder{}
	if binary {
		rec.binAddr = binTestServer(t, func(_ string, samples []wire.Sample) wire.Ack {
			rec.mu.Lock()
			defer rec.mu.Unlock()
			if rec.failNext > 0 {
				rec.failNext--
				return wire.Ack{Status: wire.StatusBacklog, Msg: "ingest backlog"}
			}
			batch := make([]Sample, len(samples))
			for i, s := range samples {
				batch[i] = Sample{Stream: s.Stream, TS: s.TS, Value: s.Value, Seq: s.Seq}
			}
			rec.batches = append(rec.batches, batch)
			return wire.Ack{Status: wire.StatusOK, Accepted: len(samples)}
		})
	}
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

// forEachTransport runs test once with BinaryAddr empty (HTTP only) and
// once with binary set, where batches travel the binary transport.
func forEachTransport(t *testing.T, test func(t *testing.T, binary bool)) {
	for _, binary := range []bool{false, true} {
		name := "http"
		if binary {
			name = "binary"
		}
		t.Run(name, func(t *testing.T) { test(t, binary) })
	}
}

// TestIngesterAssignsDistinctSeqs: Adds flow out batched, every sample
// carrying a distinct monotonically-assigned seq, and Close flushes the
// tail.
func TestIngesterAssignsDistinctSeqs(t *testing.T) {
	forEachTransport(t, testIngesterAssignsDistinctSeqs)
}

func testIngesterAssignsDistinctSeqs(t *testing.T, binary bool) {
	rec := newIngestRecorder(t, binary)
	c := newTestClient(t, rec.ts.URL, nil)
	ing := c.NewIngester(IngesterConfig{BinaryAddr: rec.binAddr, MaxBatch: 4, FlushInterval: time.Hour})
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

// TestIngesterRetryKeepsSeqs: the first request fails (an HTTP 503 or a
// binary Backlog ack); the retried batch must carry the same seqs, so a
// WAL-mode server dedups it.
func TestIngesterRetryKeepsSeqs(t *testing.T) {
	forEachTransport(t, testIngesterRetryKeepsSeqs)
}

func testIngesterRetryKeepsSeqs(t *testing.T, binary bool) {
	rec := newIngestRecorder(t, binary)
	rec.failNext = 1
	c := newTestClient(t, rec.ts.URL, nil)
	var acked [][]Sample
	var mu sync.Mutex
	ing := c.NewIngester(IngesterConfig{
		BinaryAddr:    rec.binAddr,
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
	forEachTransport(t, testIngesterOnErrorHandsBackBatch)
}

func testIngesterOnErrorHandsBackBatch(t *testing.T, binary bool) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	var binAddr string
	if binary {
		binAddr = binTestServer(t, func(string, []wire.Sample) wire.Ack {
			return wire.Ack{Status: wire.StatusBacklog, Msg: "ingest backlog"}
		})
	}
	c := newTestClient(t, ts.URL, func(cfg *Config) { cfg.MaxAttempts = 2 })
	errs := make(chan []Sample, 1)
	ing := c.NewIngester(IngesterConfig{
		BinaryAddr:    binAddr,
		MaxBatch:      1,
		FlushInterval: time.Hour,
		OnError:       func(_ error, batch []Sample) { errs <- append([]Sample(nil), batch...) },
	})
	defer ing.Close()
	if err := ing.Add(context.Background(), Sample{Stream: "s", Value: 1}); err != nil {
		t.Fatal(err)
	}
	// Over HTTP a full batch ships and fails on its own, with no barrier. A
	// pipelined frame's outcome is only known once it settles, and the
	// give-up is then the error Flush returns.
	if binary {
		if err := ing.Flush(context.Background()); err == nil {
			t.Error("Flush returned nil after the batch was given up on")
		}
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
// pushes samples out and reports the batch's ack.
func TestIngesterPeriodicFlush(t *testing.T) {
	forEachTransport(t, testIngesterPeriodicFlush)
}

func testIngesterPeriodicFlush(t *testing.T, binary bool) {
	rec := newIngestRecorder(t, binary)
	c := newTestClient(t, rec.ts.URL, nil)
	acked := make(chan []Sample, 1)
	ing := c.NewIngester(IngesterConfig{
		BinaryAddr:    rec.binAddr,
		MaxBatch:      1000,
		FlushInterval: 10 * time.Millisecond,
		OnAck:         func(_ *IngestResponse, batch []Sample) { acked <- batch },
	})
	defer ing.Close()
	if err := ing.Add(context.Background(), Sample{Stream: "s", Value: 1}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(rec.samples()) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("periodic flush never fired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case batch := <-acked:
		if len(batch) != 1 || batch[0].Stream != "s" {
			t.Errorf("OnAck batch = %+v", batch)
		}
	case <-time.After(time.Until(deadline)):
		t.Fatal("the periodically flushed batch was never acked")
	}
}

// TestIngesterFlushReportsRejection: a batch the server rejects as invalid
// (HTTP 400, binary StatusInvalid) goes to OnError and is the error Flush
// returns, on either transport.
func TestIngesterFlushReportsRejection(t *testing.T) {
	forEachTransport(t, func(t *testing.T, binary bool) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusBadRequest)
			io.WriteString(w, `{"error":{"code":"bad_sample","message":"non-finite value"}}`)
		}))
		defer ts.Close()
		var binAddr string
		if binary {
			binAddr = binTestServer(t, func(string, []wire.Sample) wire.Ack {
				return wire.Ack{Status: wire.StatusInvalid, Msg: "non-finite value"}
			})
		}
		c := newTestClient(t, ts.URL, nil)
		var rejected []error
		ing := c.NewIngester(IngesterConfig{
			BinaryAddr:    binAddr,
			MaxBatch:      8,
			FlushInterval: time.Hour,
			OnError:       func(err error, _ []Sample) { rejected = append(rejected, err) },
		})
		defer ing.Close()
		if err := ing.Add(context.Background(), Sample{Stream: "s", Value: 1}); err != nil {
			t.Fatal(err)
		}
		err := ing.Flush(context.Background())
		if err == nil {
			t.Fatal("Flush = nil after the server rejected the batch")
		}
		if len(rejected) != 1 || rejected[0] != err {
			t.Fatalf("OnError saw %v, Flush returned %v", rejected, err)
		}
	})
}

// TestIngesterWithoutBinaryAddrNeverDials: an HTTP-only Ingester ships every
// batch over HTTP and never tries the binary transport, not even once to
// fall back from it.
func TestIngesterWithoutBinaryAddrNeverDials(t *testing.T) {
	ts, hits, httpSamples := httpIngestServer(t)
	c := binTestClient(t, ts.URL, 1)
	ing := c.NewIngester(IngesterConfig{
		MaxBatch:   2,
		OnFallback: func(err error) { t.Errorf("fallback from an unconfigured binary transport: %v", err) },
	})
	for i := 0; i < 5; i++ {
		if err := ing.Add(context.Background(), Sample{Stream: "http/only", TS: int64(i + 1), Value: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ing.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	ing.Close()
	if hits.Load() != 3 || len(httpSamples()) != 5 {
		t.Fatalf("HTTP served %d requests with %d samples, want 3 with 5", hits.Load(), len(httpSamples()))
	}
	if ing.conn != nil || !ing.probeAt.IsZero() {
		t.Fatal("HTTP-only ingester dialed the binary transport")
	}
}
