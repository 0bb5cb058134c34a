package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"testing"
	"time"

	"github.com/acis-lab/larpredictor/internal/engine"
	"github.com/acis-lab/larpredictor/internal/server"
)

// TestWALReplayHoldsOneRecord: opening a WAL of about 40 MB and replaying it
// holds one record at a time, so the heap while it runs stays far below the
// log's size. Holding every record from open to the end of replay peaks
// above the whole file.
func TestWALReplayHoldsOneRecord(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("writes and replays a 40 MB WAL")
	}
	const (
		streams   = 4
		perRecord = 1000
		target    = 40 << 20
	)
	dir := t.TempDir()
	ws, err := openWALStore(dir, nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// A long source makes each sample about 230 bytes, so the log reaches
	// its size with few samples to step.
	source := strings.Repeat("replay-source-", 14)
	batch := make([]server.KeyedSample, perRecord)
	var seq uint64
	var records, samples int
	for size := 0; size < target; records++ {
		for i := range batch {
			seq++
			id := fmt.Sprintf("replay/%d", i%streams)
			batch[i] = server.KeyedSample{
				Sample: engine.Sample{ID: id, TS: int64(seq), Value: float64(seq % 17)},
				Source: source,
				Seq:    seq,
			}
		}
		rec := encodeWALBatch(batch)
		if err := ws.wal.Append(rec); err != nil {
			t.Fatal(err)
		}
		size += len(rec)
		samples += len(batch)
	}
	if err := ws.close(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}

	defer debug.SetGCPercent(debug.SetGCPercent(10))
	eng := newReplayEngine(t)
	defer eng.Close()
	runtime.GC()
	base := heapObjects()
	stop := make(chan struct{})
	peakc := heapObjectsPeak(stop)
	ws, err = openWALStore(dir, nil, io.Discard)
	if err != nil {
		close(stop)
		t.Fatal(err)
	}
	defer ws.close()
	gotRecs, gotSamples, err := ws.replay(eng, io.Discard)
	close(stop)
	peak := <-peakc
	if err != nil || gotRecs != records || gotSamples != samples {
		t.Fatalf("replay = %d records, %d samples, %v; want %d, %d", gotRecs, gotSamples, err, records, samples)
	}
	grew := float64(peak-min(peak, base)) / (1 << 20)
	t.Logf("replayed %d records (%d samples, %.1f MB): heap peaked %.1f MB above its start",
		records, samples, float64(info.Size())/(1<<20), grew)
	if limit := float64(info.Size()) / 8 / (1 << 20); grew > limit {
		t.Errorf("heap grew %.1f MB during open and replay of a %.1f MB WAL, want at most %.1f MB",
			grew, float64(info.Size())/(1<<20), limit)
	}
}

// heapObjects is the heap held by objects, live or not yet swept: the
// HeapAlloc of runtime.MemStats.
func heapObjects() uint64 {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// heapObjectsPeak samples heapObjects until stop closes, then sends the
// highest reading.
func heapObjectsPeak(stop <-chan struct{}) <-chan uint64 {
	out := make(chan uint64, 1)
	go func() {
		var peak uint64
		for {
			peak = max(peak, heapObjects())
			select {
			case <-stop:
				out <- peak
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
	}()
	return out
}

// encodeWALBatch returns batch's record payload in a fresh buffer.
func encodeWALBatch(batch []server.KeyedSample) []byte { return appendWALBatch(nil, batch) }
