package main

import (
	"fmt"
	"io"
	"sync/atomic"
	"testing"

	"github.com/acis-lab/larpredictor/internal/engine"
	"github.com/acis-lab/larpredictor/internal/server"
)

// BenchmarkIngestWAL measures the ack path of one ingest batch in both
// durability modes: mode=snapshot is the bare engine enqueue, mode=wal
// adds the dedup check, WAL append, and group-commit fsync the 202 waits
// on. The design target is WAL-mode p50 ack latency within 2× of
// snapshot-only under concurrent load (RunParallel amortizes each fsync
// across every batch in the commit window); CI's bench-regression job
// guards this benchmark against regressions via benchguard.
func BenchmarkIngestWAL(b *testing.B) {
	const batchLen = 10
	for _, mode := range []string{"snapshot", "wal"} {
		b.Run("mode="+mode, func(b *testing.B) {
			eng := newReplayEngine(b)
			defer eng.Close()
			var ws *walStore
			if mode == "wal" {
				var err error
				ws, err = openWALStore(b.TempDir(), nil, io.Discard)
				if err != nil {
					b.Fatal(err)
				}
				defer ws.close()
			}
			var worker atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				w := worker.Add(1)
				source := fmt.Sprintf("bench-src-%d", w)
				stream := fmt.Sprintf("bench/stream-%d", w)
				var seq uint64
				batch := make([]server.KeyedSample, batchLen)
				for pb.Next() {
					for i := range batch {
						seq++
						batch[i] = server.KeyedSample{
							Sample: engine.Sample{ID: stream, TS: int64(seq), Value: float64(seq % 13)},
							Source: source,
							Seq:    seq,
						}
					}
					if ws != nil {
						if _, _, err := ws.ingest(eng, batch); err != nil {
							b.Fatal(err)
						}
					} else {
						samples := make([]engine.Sample, batchLen)
						for i, ks := range batch {
							samples[i] = ks.Sample
						}
						if _, err := eng.IngestBatch(samples); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		})
	}
}
