package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/acis-lab/larpredictor/internal/durable"
	"github.com/acis-lab/larpredictor/internal/engine"
	"github.com/acis-lab/larpredictor/internal/server"
)

// hookedLog is a real BatchWAL whose Append and Sync first run a test hook;
// a hook error fails the call without touching the file.
type hookedLog struct {
	*durable.BatchWAL
	appendHook func() error
	syncHook   func() error
}

func (h *hookedLog) Append(payload []byte) error {
	if h.appendHook != nil {
		if err := h.appendHook(); err != nil {
			return err
		}
	}
	return h.BatchWAL.Append(payload)
}

func (h *hookedLog) Sync() error {
	if h.syncHook != nil {
		if err := h.syncHook(); err != nil {
			return err
		}
	}
	return h.BatchWAL.Sync()
}

// newHookedStore opens a WAL store in a temp directory with its log behind
// a hookedLog, plus an engine to commit into.
func newHookedStore(t *testing.T) (*walStore, *hookedLog, *engine.Engine) {
	t.Helper()
	ws, err := openWALStore(t.TempDir(), nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	hl := &hookedLog{BatchWAL: ws.wal.(*durable.BatchWAL)}
	ws.wal = hl
	t.Cleanup(func() { ws.close() })
	eng := newReplayEngine(t)
	t.Cleanup(func() { eng.Close() })
	return ws, hl, eng
}

// keyedBatch returns n samples of one stream keyed (source, first..first+n-1).
func keyedBatch(source string, first uint64, n int) []server.KeyedSample {
	batch := make([]server.KeyedSample, n)
	for i := range batch {
		seq := first + uint64(i)
		batch[i] = server.KeyedSample{
			Sample: engine.Sample{ID: "walcommit/" + source, TS: int64(seq), Value: float64(seq)},
			Source: source,
			Seq:    seq,
		}
	}
	return batch
}

type commitResult struct {
	accepted, deduped int
	err               error
}

func commitAsync(ws *walStore, eng *engine.Engine, batch []server.KeyedSample) <-chan commitResult {
	done := make(chan commitResult, 1)
	go func() {
		a, d, err := ws.ingest(eng, batch)
		done <- commitResult{a, d, err}
	}()
	return done
}

// TestWALDedupedRetryWaitsForFsync: a retry whose first attempt is still
// waiting for its fsync is deduplicated, and must not be acked before that
// fsync completes — the ack promises durability, deduped or not.
func TestWALDedupedRetryWaitsForFsync(t *testing.T) {
	ws, hl, eng := newHookedStore(t)
	inSync := make(chan struct{})
	release := make(chan struct{})
	var syncs atomic.Int32
	hl.syncHook = func() error {
		if syncs.Add(1) == 1 {
			close(inSync)
			<-release
		}
		return nil
	}

	batch := keyedBatch("src", 1, 4)
	first := commitAsync(ws, eng, batch)
	<-inSync // the first attempt leads an fsync that has not finished
	retry := commitAsync(ws, eng, batch)
	select {
	case r := <-retry:
		t.Fatalf("deduped retry returned (%+v) before the fsync covering its first attempt completed", r)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if r := <-first; r.err != nil || r.accepted != 4 {
		t.Fatalf("first attempt = %+v, want 4 accepted", r)
	}
	if r := <-retry; r.err != nil || r.deduped != 4 || r.accepted != 0 {
		t.Fatalf("retry = %+v, want 4 deduped", r)
	}
}

// TestWALFailedFsyncPoisonsStore: after a failed fsync the dirty pages may
// be gone, so a later successful fsync proves nothing. The failing commit
// and every later one — fresh or deduplicated — fail with the first error,
// no further fsync runs, and no snapshot is taken.
func TestWALFailedFsyncPoisonsStore(t *testing.T) {
	ws, hl, eng := newHookedStore(t)
	injected := errors.New("injected fsync failure")
	var syncs atomic.Int32
	hl.syncHook = func() error {
		if syncs.Add(1) == 1 {
			return injected
		}
		return nil
	}

	if _, _, err := ws.ingest(eng, keyedBatch("src", 1, 4)); !errors.Is(err, injected) {
		t.Fatalf("commit whose fsync failed: err = %v, want the injected failure", err)
	}
	if _, _, err := ws.ingest(eng, keyedBatch("src", 5, 4)); !errors.Is(err, injected) {
		t.Fatalf("later fresh commit: err = %v, want the first failure", err)
	}
	if _, _, err := ws.ingest(eng, keyedBatch("src", 1, 4)); !errors.Is(err, injected) {
		t.Fatalf("deduped retry: err = %v, want the first failure", err)
	}
	if n := syncs.Load(); n != 1 {
		t.Errorf("%d fsyncs ran, want 1: a poisoned store must not fsync again", n)
	}

	o := testOptions()
	st, err := openSnapStore(t.TempDir(), fingerprintOptions(o), nil)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := server.NewHistoryStore(server.HistoryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.snapshot(st, eng, server.NewResultCache(), hist); !errors.Is(err, injected) {
		t.Errorf("snapshot of a poisoned store: err = %v, want the first failure", err)
	}
}

// TestWALFailedAppendPoisonsStore: a failed append may leave torn bytes, and
// recovery stops at them, so nothing may be appended behind it. An oversized
// record is refused before any byte is written and poisons nothing.
func TestWALFailedAppendPoisonsStore(t *testing.T) {
	ws, hl, eng := newHookedStore(t)
	fail := []error{fmt.Errorf("refused: %w", durable.ErrRecordTooLarge), errors.New("injected short write")}
	var appends atomic.Int32
	hl.appendHook = func() error {
		n := int(appends.Add(1))
		if n <= len(fail) {
			return fail[n-1]
		}
		return nil
	}

	if _, _, err := ws.ingest(eng, keyedBatch("src", 1, 4)); !errors.Is(err, durable.ErrRecordTooLarge) {
		t.Fatalf("oversized commit: err = %v, want ErrRecordTooLarge", err)
	}
	if _, _, err := ws.ingest(eng, keyedBatch("src", 1, 4)); err == nil || errors.Is(err, durable.ErrRecordTooLarge) {
		t.Fatalf("retry after an oversized record: err = %v, want the injected write failure (its keys must be admitted again)", err)
	}
	for _, batch := range [][]server.KeyedSample{keyedBatch("src", 5, 4), keyedBatch("src", 1, 4)} {
		if _, _, err := ws.ingest(eng, batch); err == nil || err.Error() != "injected short write" {
			t.Fatalf("commit after a failed append: err = %v, want the first write failure", err)
		}
	}
	if n := appends.Load(); n != 2 {
		t.Errorf("%d appends attempted, want 2: nothing may land behind a torn record", n)
	}
}

// TestWALRefusedBatchRevertsEveryMark: a refused batch of 10,000 in-order
// seqs of one (stream, source) — more than the dedup window's compaction
// reach below its floor — withdraws every mark, so the retry admits all of
// them.
func TestWALRefusedBatchRevertsEveryMark(t *testing.T) {
	ws, hl, eng := newHookedStore(t)
	var appends atomic.Int32
	hl.appendHook = func() error {
		if appends.Add(1) == 1 {
			return fmt.Errorf("refused: %w", durable.ErrRecordTooLarge)
		}
		return nil
	}
	const n = 10000
	if _, _, err := ws.ingest(eng, keyedBatch("src", 1, n)); !errors.Is(err, durable.ErrRecordTooLarge) {
		t.Fatalf("refused commit: err = %v, want ErrRecordTooLarge", err)
	}
	if a, d, err := ws.ingest(eng, keyedBatch("src", 1, n)); err != nil || a != n || d != 0 {
		t.Fatalf("retry: accepted %d, deduped %d, err %v; want all %d accepted", a, d, err, n)
	}
}

// TestWALConcurrentCommitsShareFsyncs: committers that arrive while an fsync
// runs share the next one, so concurrent load needs fewer fsyncs than
// commits, and every commit is acked.
func TestWALConcurrentCommitsShareFsyncs(t *testing.T) {
	ws, hl, eng := newHookedStore(t)
	var syncs atomic.Int32
	hl.syncHook = func() error {
		syncs.Add(1)
		time.Sleep(time.Millisecond)
		return nil
	}
	const workers, commits = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			source := fmt.Sprintf("src-%d", w)
			for c := 0; c < commits; c++ {
				if a, _, err := ws.ingest(eng, keyedBatch(source, uint64(c*4+1), 4)); err != nil || a != 4 {
					t.Errorf("worker %d commit %d: accepted %d, err %v", w, c, a, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	n := syncs.Load()
	t.Logf("%d commits, %d fsyncs", workers*commits, n)
	if n == 0 || n >= workers*commits {
		t.Errorf("%d fsyncs for %d commits, want at least 1 and fewer than the commits", n, workers*commits)
	}
}

// TestWALOversizedBatchRefusedBeforeEncoding: a batch whose record would
// exceed durable.MaxBatchRecord — here because its long source repeats in
// every sample — fails with ErrRecordTooLarge before the record is built,
// so it allocates almost nothing; its keys stay unapplied and the store
// stays usable.
func TestWALOversizedBatchRefusedBeforeEncoding(t *testing.T) {
	ws, hl, eng := newHookedStore(t)
	var appends atomic.Int32
	hl.appendHook = func() error {
		appends.Add(1)
		return nil
	}
	source := strings.Repeat("s", 4<<10)
	batch := func(n int) []server.KeyedSample {
		b := make([]server.KeyedSample, n)
		for i := range b {
			seq := uint64(i + 1)
			b[i] = server.KeyedSample{Sample: engine.Sample{ID: "walcommit/big", TS: int64(seq), Value: 1},
				Source: source, Seq: seq}
		}
		return b
	}
	big := batch(5000) // about 20 MB of record
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ws.ingest(eng, big)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, durable.ErrRecordTooLarge) {
		t.Fatalf("oversized batch: err = %v, want ErrRecordTooLarge", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("refusing an oversized batch allocated %d bytes, want at most 1 MB", grew)
	}
	if a, d, err := ws.ingest(eng, batch(10)); err != nil || a != 10 || d != 0 {
		t.Fatalf("same keys in a small batch: accepted %d, deduped %d, err %v; want 10 accepted", a, d, err)
	}
	if n := appends.Load(); n != 1 {
		t.Errorf("%d appends attempted, want 1: the oversized record must not reach the log", n)
	}
}

// TestWALBatchSizeMatchesEncoding: walBatchSize is the exact length of the
// record encodeWALBatch builds.
func TestWALBatchSizeMatchesEncoding(t *testing.T) {
	batches := [][]server.KeyedSample{
		nil,
		keyedBatch("src", 1, 3),
		{
			{Sample: engine.Sample{ID: "a", TS: -1, Value: math.NaN()}},
			{Sample: engine.Sample{ID: strings.Repeat("x", 200), TS: math.MinInt64, Value: -2},
				Source: strings.Repeat("y", 130), Seq: math.MaxUint64},
			{Sample: engine.Sample{ID: "b", TS: math.MaxInt64}, Source: "s", Seq: 1 << 35},
		},
	}
	for i, b := range batches {
		if got, want := walBatchSize(b), len(encodeWALBatch(b)); got != want {
			t.Errorf("batch %d: walBatchSize = %d, encoded length %d", i, got, want)
		}
	}
}
