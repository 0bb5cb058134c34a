// Predictclient: a resilient client for a running predictd, built on the
// repo's client package. It streams a synthetic CPU trace into POST
// /v1/ingest through the batching Ingester — exponential backoff with full
// jitter, Retry-After honored, circuit breaker, and client-assigned
// (source, seq) idempotency keys so retried batches apply exactly once on
// a WAL-mode daemon — then reads the stream's forecast back. Ctrl-C exits
// cleanly at any point: the first SIGINT stops new work, flushes what was
// queued, and prints where the stream got to.
//
// Start the daemon, then run the client:
//
//	go run ./cmd/predictd -listen :8100 &
//	go run ./examples/predictclient -addr http://localhost:8100
//
// With -watch, the client instead subscribes to the live forecast feed
// (GET /v1/subscribe, server-sent events) while the ingest runs, printing
// each observation against the forecast that targeted it as the daemon
// processes them. The subscription survives connection drops: it reconnects
// with Last-Event-ID and delivers every event exactly once.
//
// With -binary, ingest travels over the framed binary wire protocol instead
// of HTTP/JSON — start the daemon with -binary-listen and point the flag at
// that address:
//
//	go run ./cmd/predictd -listen :8100 -binary-listen :8200 &
//	go run ./examples/predictclient -addr http://localhost:8100 -binary localhost:8200
//
// The same Ingester ships either way: -binary only sets its BinaryAddr. It
// keeps the same idempotency keys and falls back to the HTTP transport
// (resending the very same batches) if the binary listener goes away, so
// durability semantics are identical on both paths.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	larpredictor "github.com/acis-lab/larpredictor"
	"github.com/acis-lab/larpredictor/client"
)

func main() {
	addr := flag.String("addr", "http://localhost:8100", "predictd base URL")
	binary := flag.String("binary", "", "predictd binary ingest address (-binary-listen); empty keeps ingest on HTTP/JSON")
	stream := flag.String("stream", "VM2/CPU_usedsec", "stream ID to ingest and query")
	source := flag.String("source", "predictclient-example", "idempotency source ID for this client")
	watch := flag.Bool("watch", false, "follow the live forecast feed while ingesting")
	flag.Parse()

	// First SIGINT cancels ctx: in-flight work wraps up and the client
	// exits 0. A second SIGINT kills the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	c, err := client.New(client.Config{
		BaseURL: *addr,
		Source:  *source,
	})
	if err != nil {
		log.Fatal(err)
	}

	// A day of five-minute CPU samples from the synthetic VM workload
	// generator; any float64 series a collector produces works the same way.
	traces := larpredictor.StandardTraceSet(1)
	series, err := traces.Get("VM2", "CPU_usedsec")
	if err != nil {
		log.Fatal(err)
	}

	// -watch: follow the feed in the background while the ingest below runs.
	// SubscribeForecasts reconnects on its own; the goroutine ends when ctx
	// cancels or the ingest finishes and watchStop is called.
	var watchDone chan struct{}
	var watchStop context.CancelFunc
	if *watch {
		var wctx context.Context
		wctx, watchStop = context.WithCancel(ctx)
		watchDone = make(chan struct{})
		defer func() {
			watchStop()
			<-watchDone
		}()
		go func() {
			defer close(watchDone)
			err := c.SubscribeForecasts(wctx, []string{*stream}, func(ev client.ForecastEvent) error {
				if ev.Predicted != nil {
					fmt.Printf("[watch] ts=%d value=%.2f predicted=%.2f (|err| %.2f, %s)\n",
						ev.TS, ev.Value, *ev.Predicted, *ev.AbsErr, ev.Expert)
				} else {
					fmt.Printf("[watch] ts=%d value=%.2f (warming up)\n", ev.TS, ev.Value)
				}
				return nil
			})
			if err != nil && wctx.Err() == nil {
				log.Printf("watch ended: %v", err)
			}
		}()
	}

	// The Ingester batches, retries, and keys every sample; Add blocks only
	// when the daemon falls behind. Backpressure (429/503 + Retry-After)
	// and transient failures are absorbed by the client's retry loop. With
	// -binary, batches are pipelined over the framed wire protocol instead,
	// falling back to HTTP if it fails.
	ing := c.NewIngester(client.IngesterConfig{
		BinaryAddr:    *binary,
		MaxBatch:      32,
		FlushInterval: 100 * time.Millisecond,
		OnError: func(err error, batch []client.Sample) {
			log.Printf("batch of %d gave up: %v", len(batch), err)
		},
		OnFallback: func(err error) {
			log.Printf("binary transport unavailable, using HTTP: %v", err)
		},
	})
	sent := 0
	for i, v := range series.Values {
		if err := ing.Add(ctx, client.Sample{Stream: *stream, TS: int64(i), Value: v}); err != nil {
			if errors.Is(err, context.Canceled) {
				break // Ctrl-C: flush what we have and report
			}
			log.Fatal(err)
		}
		sent++
	}
	if err := ing.Close(); err != nil {
		log.Fatal(err)
	}
	if sent == 0 {
		fmt.Println("interrupted before any sample was sent")
		return
	}

	// Ingest is asynchronous server-side: poll until the daemon has folded
	// in the tail of what was actually sent, then print the forecast.
	lastTS := int64(sent - 1)
	for {
		fc, err := c.Forecast(ctx, *stream)
		if err != nil {
			if ctx.Err() != nil {
				fmt.Printf("interrupted after sending %d samples\n", sent)
				return
			}
			log.Fatal(err)
		}
		if fc.LastTS >= lastTS && fc.Forecast != nil {
			fmt.Printf("stream %s (health %s): next value ≈ %.2f (forecast by the %s expert)\n",
				fc.Stream, fc.Health, fc.Forecast.Value, fc.Forecast.Expert)
			return
		}
		select {
		case <-ctx.Done():
			fmt.Printf("interrupted after sending %d samples (stream at ts %d)\n", sent, fc.LastTS)
			return
		case <-time.After(50 * time.Millisecond):
		}
	}
}
