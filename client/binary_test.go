package client

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/acis-lab/larpredictor/internal/durable"
	"github.com/acis-lab/larpredictor/internal/wire"
)

// binTestServer runs a real wire.Server whose ingest callback is the test's.
func binTestServer(t *testing.T, ingest func(source string, samples []wire.Sample) wire.Ack) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := wire.NewServer(wire.ServerConfig{Ingest: ingest, Logw: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// httpIngestServer is an HTTP fallback target that acks every batch with
// 202 and records the samples it saw.
func httpIngestServer(t *testing.T) (*httptest.Server, *atomic.Int32, func() []Sample) {
	t.Helper()
	var hits atomic.Int32
	var mu sync.Mutex
	var got []Sample
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		var req IngestRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("fallback body: %v", err)
		}
		mu.Lock()
		got = append(got, req.Samples...)
		mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(IngestResponse{Accepted: len(req.Samples)})
	}))
	t.Cleanup(ts.Close)
	samples := func() []Sample {
		mu.Lock()
		defer mu.Unlock()
		return append([]Sample(nil), got...)
	}
	return ts, &hits, samples
}

func binTestClient(t *testing.T, baseURL string, threshold int) *Client {
	t.Helper()
	return newTestClient(t, baseURL, func(cfg *Config) {
		cfg.BreakerThreshold = threshold
	})
}

// assertBreakerClosed fails unless the client's breaker is closed with a
// clean failure count — the invariant the binary transport must preserve.
func assertBreakerClosed(t *testing.T, c *Client, when string) {
	t.Helper()
	c.breaker.mu.Lock()
	state, failures := c.breaker.state, c.breaker.failures
	c.breaker.mu.Unlock()
	if state != breakerClosed || failures != 0 {
		t.Fatalf("%s: breaker state=%d failures=%d, want closed with 0", when, state, failures)
	}
}

// TestBinaryIngesterDeliversOverWire: the happy path never touches HTTP and
// every sample arrives exactly once with its assigned key.
func TestBinaryIngesterDeliversOverWire(t *testing.T) {
	var mu sync.Mutex
	var got []wire.Sample
	var sources []string
	addr := binTestServer(t, func(source string, samples []wire.Sample) wire.Ack {
		mu.Lock()
		got = append(got, samples...)
		sources = append(sources, source)
		mu.Unlock()
		return wire.Ack{Status: wire.StatusOK, Accepted: len(samples)}
	})
	ts, hits, _ := httpIngestServer(t)
	c := binTestClient(t, ts.URL, 1)

	var acked atomic.Int32
	bi := c.NewIngester(IngesterConfig{
		BinaryAddr: addr,
		MaxBatch:   8,
		OnAck: func(resp *IngestResponse, batch []Sample) {
			acked.Add(int32(resp.Accepted))
		},
		OnError:    func(err error, batch []Sample) { t.Errorf("unexpected OnError: %v", err) },
		OnFallback: func(err error) { t.Errorf("unexpected fallback: %v", err) },
	})
	const n = 50
	for i := 0; i < n; i++ {
		if err := bi.Add(context.Background(), Sample{Stream: "bin/happy", TS: int64(i + 1), Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := bi.Flush(context.Background()); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := bi.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != n {
		t.Fatalf("server received %d samples, want %d", len(got), n)
	}
	seen := map[uint64]bool{}
	for _, s := range got {
		if s.Seq == 0 || seen[s.Seq] {
			t.Fatalf("sample seq %d missing or duplicated", s.Seq)
		}
		seen[s.Seq] = true
	}
	for _, src := range sources {
		if src != "test-src" {
			t.Fatalf("batch source = %q, want test-src", src)
		}
	}
	if int(acked.Load()) != n {
		t.Fatalf("OnAck accepted total = %d, want %d", acked.Load(), n)
	}
	if hits.Load() != 0 {
		t.Fatalf("HTTP fallback served %d requests on the happy path", hits.Load())
	}
}

// TestBinaryIngesterDialFailureFallsBackToHTTP: a refused binary listener
// must not trip the breaker — the HTTP listener is fine and carries the
// batch with the same keys.
func TestBinaryIngesterDialFailureFallsBackToHTTP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close() // nothing listens here anymore

	ts, hits, httpSamples := httpIngestServer(t)
	c := binTestClient(t, ts.URL, 1) // threshold 1: a single failure() would open it

	var fallbacks atomic.Int32
	bi := c.NewIngester(IngesterConfig{
		BinaryAddr: deadAddr,
		MaxBatch:   4,
		OnFallback: func(err error) { fallbacks.Add(1) },
		OnError:    func(err error, batch []Sample) { t.Errorf("unexpected OnError: %v", err) },
	})
	for i := 0; i < 4; i++ {
		if err := bi.Add(context.Background(), Sample{Stream: "bin/fallback", TS: int64(i + 1), Value: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := bi.Flush(context.Background()); err != nil {
		t.Fatalf("flush over fallback: %v", err)
	}
	bi.Close()
	if hits.Load() == 0 {
		t.Fatal("HTTP fallback never received the batch")
	}
	if fallbacks.Load() == 0 {
		t.Fatal("OnFallback never observed the transition")
	}
	got := httpSamples()
	if len(got) != 4 {
		t.Fatalf("HTTP received %d samples, want 4", len(got))
	}
	for i, s := range got {
		if s.Seq != uint64(i+1) {
			t.Fatalf("HTTP sample %d carries seq %d, want %d (keys must survive fallback)", i, s.Seq, i+1)
		}
	}
	assertBreakerClosed(t, c, "after dial-refused fallback")
}

// resetWireServer speaks just enough of the protocol to accept the
// handshake, read frames, and then drop the connection without acking —
// the connection-reset case the breaker fix is about.
func resetWireServer(t *testing.T, framesBeforeClose int) (string, *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var conns atomic.Int32
	go func() {
		for {
			conn, aerr := ln.Accept()
			if aerr != nil {
				return
			}
			conns.Add(1)
			go func(conn net.Conn) {
				defer conn.Close()
				hs := make([]byte, len(wire.Magic)+2)
				if _, rerr := io.ReadFull(conn, hs); rerr != nil {
					return
				}
				reply := append([]byte(nil), wire.Magic[:]...)
				reply = binary.LittleEndian.AppendUint16(reply, wire.MaxVersion)
				if _, werr := conn.Write(reply); werr != nil {
					return
				}
				var buf []byte
				for i := 0; i < framesBeforeClose; i++ {
					var rerr error
					_, buf, rerr = durable.ReadRecord(conn, buf, wire.DefaultMaxFrame)
					if rerr != nil {
						return
					}
				}
				// Close without acking: the client sees EOF/reset with the
				// batch outcome unknown.
			}(conn)
		}
	}()
	return ln.Addr().String(), &conns
}

// TestBinaryIngesterConnResetNeverTripsBreaker is the regression test for
// the breaker rule: a reset on an established binary connection is
// backpressure-class (like a 503), not a breaker failure. With threshold 1,
// a single mis-counted reset would open the breaker and shed the HTTP
// fallback — the batch would never land.
func TestBinaryIngesterConnResetNeverTripsBreaker(t *testing.T) {
	addr, conns := resetWireServer(t, 1) // every conn dies after one frame
	ts, hits, httpSamples := httpIngestServer(t)
	c := binTestClient(t, ts.URL, 1)

	bi := c.NewIngester(IngesterConfig{
		BinaryAddr: addr,
		MaxBatch:   4,
	})
	for i := 0; i < 4; i++ {
		if err := bi.Add(context.Background(), Sample{Stream: "bin/reset", TS: int64(i + 1), Value: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := bi.Flush(context.Background()); err != nil {
		t.Fatalf("flush after resets: %v", err)
	}
	bi.Close()
	// The ingester sent on conn 1, lost it, redialed once (conn 2), lost
	// that too, then delivered over HTTP.
	if conns.Load() < 2 {
		t.Fatalf("ingester dialed %d times, want a redial before HTTP fallback", conns.Load())
	}
	if hits.Load() == 0 {
		t.Fatal("batch never reached the HTTP fallback after binary resets")
	}
	if got := httpSamples(); len(got) != 4 {
		t.Fatalf("HTTP received %d samples, want 4", len(got))
	}
	assertBreakerClosed(t, c, "after binary connection resets")
}

// TestBinaryIngesterBackpressureAckNeverTripsBreaker: Backlog acks are the
// daemon alive and talking — with threshold 1 they must count as breaker
// successes while the batch is retried (binary once, then the HTTP retry
// loop, which owns backoff).
func TestBinaryIngesterBackpressureAckNeverTripsBreaker(t *testing.T) {
	var binAcks atomic.Int32
	addr := binTestServer(t, func(source string, samples []wire.Sample) wire.Ack {
		binAcks.Add(1)
		return wire.Ack{Status: wire.StatusBacklog, Msg: "ingest backlog"}
	})
	ts, hits, httpSamples := httpIngestServer(t)
	c := binTestClient(t, ts.URL, 1)

	var fallbackErr error
	bi := c.NewIngester(IngesterConfig{
		BinaryAddr: addr,
		MaxBatch:   4,
		OnFallback: func(err error) { fallbackErr = err },
	})
	for i := 0; i < 4; i++ {
		if err := bi.Add(context.Background(), Sample{Stream: "bin/backlog", TS: int64(i + 1), Value: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := bi.Flush(context.Background()); err != nil {
		t.Fatalf("flush under backpressure: %v", err)
	}
	bi.Close()
	if binAcks.Load() < 2 {
		t.Fatalf("binary transport acked %d times, want pipelined send + one synchronous retry", binAcks.Load())
	}
	if hits.Load() == 0 || len(httpSamples()) != 4 {
		t.Fatalf("backpressured batch must land via HTTP (hits=%d, samples=%d)", hits.Load(), len(httpSamples()))
	}
	if fallbackErr == nil {
		t.Fatal("OnFallback never reported the backpressure transition")
	}
	assertBreakerClosed(t, c, "after backlog acks")
}

// TestBinaryWindowRecoveryShipsNextBatch: when a full window has to be
// recovered to make room, the batch that was waiting for the room is still
// shipped — every sample ends in OnAck or OnError, none silently.
func TestBinaryWindowRecoveryShipsNextBatch(t *testing.T) {
	addr := binTestServer(t, func(string, []wire.Sample) wire.Ack {
		return wire.Ack{Status: wire.StatusBacklog, Msg: "ingest backlog"}
	})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	c := newTestClient(t, ts.URL, func(cfg *Config) { cfg.MaxAttempts = 1 })
	var failed atomic.Int32
	bi := c.NewIngester(IngesterConfig{
		BinaryAddr: addr,
		MaxBatch:   1,
		OnAck:      func(*IngestResponse, []Sample) { t.Error("unexpected OnAck") },
		OnError:    func(_ error, batch []Sample) { failed.Add(int32(len(batch))) },
	})
	const n = ingestWindow + 1
	for i := 0; i < n; i++ {
		if err := bi.Add(context.Background(), Sample{Stream: "bin/window", TS: int64(i + 1), Value: 1}); err != nil {
			t.Fatal(err)
		}
	}
	bi.Flush(context.Background())
	bi.Close()
	if got := failed.Load(); got != n {
		t.Fatalf("OnError accounted for %d of %d samples", got, n)
	}
}
