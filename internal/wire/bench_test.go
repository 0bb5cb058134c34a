package wire_test

// End-to-end transport comparison: the same predictd ingest pipeline
// (server.IngestKeyed -> engine enqueue) fed over HTTP/JSON and over the
// framed binary protocol. External test package so the harness can compose
// internal/server on top of internal/wire the way cmd/predictd does.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"testing"
	"time"

	"github.com/acis-lab/larpredictor/internal/core"
	"github.com/acis-lab/larpredictor/internal/engine"
	"github.com/acis-lab/larpredictor/internal/server"
	"github.com/acis-lab/larpredictor/internal/wire"
)

const (
	benchBatchLen = 256
	benchStreams  = 64
	benchWindow   = 16
)

// newBenchEngine builds the engine all three sub-benchmarks share. A huge
// TrainSize keeps every stream in the cheap accumulation phase for the
// whole run: the benchmark compares transports, so per-sample predictor
// compute — identical for both — is kept off the scale (it would otherwise
// dominate on small machines). No OnResult hook for the same reason.
func newBenchEngine(b *testing.B) *engine.Engine {
	b.Helper()
	shards := runtime.GOMAXPROCS(0)
	if shards > 8 {
		shards = 8
	}
	eng, err := engine.New(engine.Config{
		Shards:     shards,
		QueueDepth: 1 << 15,
		NewStream: func(string) (*core.Online, error) {
			return core.NewOnline(core.OnlineConfig{
				Predictor:   core.DefaultConfig(5),
				TrainSize:   1 << 20,
				MaxHistory:  1 << 20,
				AuditWindow: 6,
			})
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// startBenchDaemon builds the real ingest stack — engine, server, HTTP
// listener, wire listener — and returns both transport addresses.
func startBenchDaemon(b *testing.B) (httpAddr, binAddr string) {
	b.Helper()
	hist, err := server.NewHistoryStore(server.HistoryConfig{})
	if err != nil {
		b.Fatal(err)
	}
	eng := newBenchEngine(b)
	srv, err := server.New(server.Config{Engine: eng, Cache: server.NewResultCache(), History: hist})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	wsrv, err := wire.NewServer(wire.ServerConfig{Ingest: srv.BinaryIngest, Logw: io.Discard})
	if err != nil {
		b.Fatal(err)
	}
	bln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go wsrv.Serve(bln)
	b.Cleanup(func() {
		wsrv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		srv.Shutdown(ctx)
		cancel()
		eng.Close()
	})
	return ln.Addr().String(), bln.Addr().String()
}

func benchStreamNames() []string {
	names := make([]string, benchStreams)
	for i := range names {
		names[i] = fmt.Sprintf("bench/stream-%02d", i)
	}
	return names
}

// reportLatencies emits p50/p99 ack latency for one transport run.
func reportLatencies(b *testing.B, lats []time.Duration) {
	if len(lats) == 0 {
		return
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p := func(q float64) float64 {
		idx := int(q * float64(len(lats)-1))
		return float64(lats[idx])
	}
	b.ReportMetric(p(0.50), "p50-ack-ns")
	b.ReportMetric(p(0.99), "p99-ack-ns")
}

// BenchmarkIngestBinaryVsJSON measures end-to-end ingest throughput of the
// two transports against the identical server pipeline: sequential
// HTTP/JSON batches versus pipelined binary frames. One op is one sample,
// so ns/op is the per-sample cost the benchguard gate locks in; samples/sec
// and ack-latency percentiles are reported alongside.
//
// transport=none is the raw in-process engine ingest rate — the ceiling no
// transport can beat. The saturation claim reads directly off the output:
// transport=binary's ns/op should sit within a few tens of ns of
// transport=none (the wire protocol's whole overhead), while
// transport=json sits an order of magnitude above both.
func BenchmarkIngestBinaryVsJSON(b *testing.B) {
	b.Run("transport=none", func(b *testing.B) {
		eng := newBenchEngine(b)
		b.Cleanup(func() { eng.Close() })
		streams := benchStreamNames()
		batch := make([]engine.Sample, benchBatchLen)
		var ts int64
		b.ReportAllocs()
		b.ResetTimer()
		for done := 0; done < b.N; done += benchBatchLen {
			n := benchBatchLen
			if rem := b.N - done; rem < n {
				n = rem
			}
			run := batch[:n]
			for i := range run {
				ts++
				run[i] = engine.Sample{
					ID: streams[int(ts)%benchStreams], TS: ts, Value: float64(ts % 97),
				}
			}
			if _, err := eng.IngestBatch(run); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "samples/sec")
	})

	b.Run("transport=json", func(b *testing.B) {
		httpAddr, _ := startBenchDaemon(b)
		streams := benchStreamNames()
		url := "http://" + httpAddr + "/v1/ingest"
		hc := &http.Client{}
		var lats []time.Duration
		var ts int64
		b.ReportAllocs()
		b.ResetTimer()
		for done := 0; done < b.N; done += benchBatchLen {
			n := benchBatchLen
			if rem := b.N - done; rem < n {
				n = rem
			}
			req := server.IngestRequest{Source: "bench-json", Samples: make([]server.IngestSample, n)}
			for i := range req.Samples {
				ts++
				req.Samples[i] = server.IngestSample{
					Stream: streams[int(ts)%benchStreams], TS: ts, Value: float64(ts % 97),
				}
			}
			body, err := json.Marshal(req)
			if err != nil {
				b.Fatal(err)
			}
			t0 := time.Now()
			resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			lats = append(lats, time.Since(t0))
			if resp.StatusCode != http.StatusAccepted {
				b.Fatalf("HTTP %d", resp.StatusCode)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "samples/sec")
		reportLatencies(b, lats)
	})

	b.Run("transport=binary", func(b *testing.B) {
		_, binAddr := startBenchDaemon(b)
		streams := benchStreamNames()
		ctx := context.Background()
		conn, err := wire.Dial(ctx, binAddr, wire.ConnConfig{Window: benchWindow})
		if err != nil {
			b.Fatal(err)
		}
		defer conn.Close()

		// The collector settles acks in send order while the send loop keeps
		// the window full — the pipelining a client Ingester with a
		// BinaryAddr does.
		type sent struct {
			p  *wire.Pending
			t0 time.Time
		}
		acks := make(chan sent, benchWindow)
		latCh := make(chan []time.Duration, 1)
		go func() {
			var lats []time.Duration
			for e := range acks {
				ack, werr := e.p.Wait(ctx)
				if werr != nil {
					b.Errorf("ack: %v", werr)
					break
				}
				lats = append(lats, time.Since(e.t0))
				if ack.Status != wire.StatusOK {
					b.Errorf("ack status %s: %s", ack.Status, ack.Msg)
					break
				}
			}
			latCh <- lats
		}()

		batch := make([]wire.Sample, 0, benchBatchLen)
		var ts int64
		b.ReportAllocs()
		b.ResetTimer()
		for done := 0; done < b.N; done += benchBatchLen {
			n := benchBatchLen
			if rem := b.N - done; rem < n {
				n = rem
			}
			batch = batch[:n]
			for i := range batch {
				ts++
				batch[i] = wire.Sample{
					Stream: streams[int(ts)%benchStreams], TS: ts, Value: float64(ts % 97),
				}
			}
			p, serr := conn.Send(ctx, "bench-binary", batch)
			if serr != nil {
				b.Fatal(serr)
			}
			acks <- sent{p: p, t0: time.Now()}
		}
		close(acks)
		lats := <-latCh
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "samples/sec")
		reportLatencies(b, lats)
	})
}
