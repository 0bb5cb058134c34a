package engine

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/acis-lab/larpredictor/internal/core"
	"github.com/acis-lab/larpredictor/internal/obs"
)

// newTestOnline returns a fresh online predictor with QA retraining
// disabled, so tests exercise the pure ingest→forecast path.
func newTestOnline(t testing.TB) *core.Online {
	t.Helper()
	o, err := core.NewOnline(core.OnlineConfig{
		Predictor:   core.DefaultConfig(5),
		TrainSize:   60,
		AuditWindow: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// signal generates a deterministic smooth workload trace.
func signal(i int) float64 {
	return 10 + 3*math.Sin(float64(i)/7) + 0.1*float64(i%5)
}

func TestEngineIngestForecastDrain(t *testing.T) {
	type got struct {
		ts   []int64
		errs int
	}
	var mu sync.Mutex
	byStream := map[string]*got{}
	e, err := New(Config{
		Shards: 4,
		OnResult: func(r Result) {
			mu.Lock()
			g := byStream[r.ID]
			if g == nil {
				g = &got{}
				byStream[r.ID] = g
			}
			g.ts = append(g.ts, r.TS)
			if r.Err != nil && !errors.Is(r.Err, core.ErrNotReady) {
				g.errs++
			}
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	ids := []string{"vm-01/cpu", "vm-02/cpu", "vm-03/net", "vm-04/mem", "vm-05/mem"}
	for _, id := range ids {
		if err := e.Register(id, newTestOnline(t)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Register(ids[0], newTestOnline(t)); !errors.Is(err, ErrDuplicateStream) {
		t.Fatalf("duplicate Register err = %v, want ErrDuplicateStream", err)
	}

	const steps = 200
	for i := 0; i < steps; i++ {
		for _, id := range ids {
			if err := e.IngestSample(Sample{ID: id, TS: int64(i), Value: signal(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	e.Drain()

	mu.Lock()
	defer mu.Unlock()
	for _, id := range ids {
		g := byStream[id]
		if g == nil {
			t.Fatalf("stream %s: no results", id)
		}
		if len(g.ts) != steps {
			t.Fatalf("stream %s: got %d results, want %d", id, len(g.ts), steps)
		}
		for i, ts := range g.ts {
			if ts != int64(i) {
				t.Fatalf("stream %s: result %d has TS %d — per-stream FIFO order violated", id, i, ts)
			}
		}
		if g.errs != 0 {
			t.Errorf("stream %s: %d unexpected step errors", id, g.errs)
		}
		st, ok := e.Stats(id)
		if !ok {
			t.Fatalf("stream %s: no stats", id)
		}
		if st.Processed != steps || st.Poisoned || st.Fault != "" {
			t.Errorf("stream %s: stats = %+v, want %d processed and clean", id, st, steps)
		}
		if st.Health.State != core.Healthy {
			t.Errorf("stream %s: health %v, want Healthy", id, st.Health.State)
		}
	}
	es := e.EngineStats()
	want := uint64(steps * len(ids))
	if es.Ingested != want || es.Processed != want {
		t.Errorf("EngineStats ingested/processed = %d/%d, want %d", es.Ingested, es.Processed, want)
	}
	if es.Streams != len(ids) || es.Poisoned != 0 || es.Dropped != 0 {
		t.Errorf("EngineStats = %+v", es)
	}
}

func TestEngineNewStreamFactory(t *testing.T) {
	var created atomic.Int32
	e, err := New(Config{
		Shards: 2,
		NewStream: func(id string) (*core.Online, error) {
			created.Add(1)
			return newTestOnline(t), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 50; i++ {
		if err := e.Ingest("auto-a", signal(i)); err != nil {
			t.Fatal(err)
		}
		if err := e.Ingest("auto-b", signal(i)); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()
	if got := created.Load(); got != 2 {
		t.Errorf("factory created %d streams, want 2", got)
	}
	st, ok := e.Stats("auto-a")
	if !ok || st.Processed != 50 {
		t.Errorf("auto-a stats = %+v ok=%v, want 50 processed", st, ok)
	}
}

func TestEngineUnknownStreamDropped(t *testing.T) {
	e, err := New(Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 7; i++ {
		if err := e.Ingest("nobody", float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()
	if es := e.EngineStats(); es.UnknownDropped != 7 || es.Streams != 0 {
		t.Errorf("EngineStats = %+v, want 7 unknown-dropped, 0 streams", es)
	}
}

// blockedWorkerEngine builds a single-shard engine whose worker signals on
// started each time it picks up a sample, then waits for a token on gate —
// letting tests hold the queue at a known occupancy.
func blockedWorkerEngine(t *testing.T, depth int, policy Policy, onResult func(Result)) (*Engine, chan struct{}, chan struct{}) {
	t.Helper()
	started := make(chan struct{}, 64)
	gate := make(chan struct{}, 64)
	e, err := New(Config{
		Shards:     1,
		QueueDepth: depth,
		MaxBatch:   1,
		Policy:     policy,
		OnResult:   onResult,
		StepHook: func(string) {
			started <- struct{}{}
			<-gate
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, started, gate
}

func TestEngineRejectPolicy(t *testing.T) {
	e, started, gate := blockedWorkerEngine(t, 1, Reject, nil)
	defer e.Close()
	if err := e.Register("s", newTestOnline(t)); err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest("s", 1); err != nil {
		t.Fatal(err)
	}
	<-started // worker holds sample 1; queue is empty
	if err := e.Ingest("s", 2); err != nil {
		t.Fatal(err) // fills the depth-1 queue
	}
	if err := e.Ingest("s", 3); !errors.Is(err, ErrBacklog) {
		t.Fatalf("ingest into full queue err = %v, want ErrBacklog", err)
	}
	gate <- struct{}{}
	gate <- struct{}{}
	<-started
	e.Drain()
	if st, _ := e.Stats("s"); st.Processed != 2 {
		t.Errorf("processed = %d, want 2", st.Processed)
	}
}

func TestEngineDropOldestPolicy(t *testing.T) {
	var mu sync.Mutex
	var order []int64
	e, started, gate := blockedWorkerEngine(t, 2, DropOldest, func(r Result) {
		mu.Lock()
		order = append(order, r.TS)
		mu.Unlock()
	})
	defer e.Close()
	if err := e.Register("s", newTestOnline(t)); err != nil {
		t.Fatal(err)
	}
	ingest := func(ts int64) {
		if err := e.IngestSample(Sample{ID: "s", TS: ts, Value: float64(ts)}); err != nil {
			t.Fatal(err)
		}
	}
	ingest(1)
	<-started // worker holds sample 1; queue empty
	ingest(2)
	ingest(3) // queue [2 3]
	ingest(4) // evicts 2 → [3 4]
	ingest(5) // evicts 3 → [4 5]
	for i := 0; i < 3; i++ {
		gate <- struct{}{}
	}
	e.Drain()
	mu.Lock()
	got := append([]int64(nil), order...)
	mu.Unlock()
	want := []int64{1, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("processed TS = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("processed TS = %v, want %v (drop-oldest must keep the freshest samples)", got, want)
		}
	}
	if es := e.EngineStats(); es.Dropped != 2 {
		t.Errorf("EngineStats.Dropped = %d, want 2", es.Dropped)
	}
	// Unblock the remaining started signals if any (none expected).
	close(gate)
}

func TestEngineBlockPolicy(t *testing.T) {
	e, started, gate := blockedWorkerEngine(t, 1, Block, nil)
	defer e.Close()
	if err := e.Register("s", newTestOnline(t)); err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest("s", 1); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := e.Ingest("s", 2); err != nil { // fills the queue
		t.Fatal(err)
	}
	entered := make(chan struct{})
	finished := make(chan error, 1)
	go func() {
		close(entered)
		finished <- e.Ingest("s", 3) // must block until the worker frees a slot
	}()
	<-entered
	select {
	case err := <-finished:
		t.Fatalf("ingest into full queue returned early (err=%v); Block policy must wait", err)
	default:
	}
	for i := 0; i < 3; i++ {
		gate <- struct{}{}
	}
	if err := <-finished; err != nil {
		t.Fatal(err)
	}
	e.Drain()
	if st, _ := e.Stats("s"); st.Processed != 3 {
		t.Errorf("processed = %d, want 3", st.Processed)
	}
}

func TestEnginePanicPoisonsOnlyThatStream(t *testing.T) {
	var arm atomic.Bool
	var results sync.Map // id -> last Err
	e, err := New(Config{
		Shards: 2,
		StepHook: func(id string) {
			if id == "victim" && arm.CompareAndSwap(true, false) {
				panic("boom")
			}
		},
		OnResult: func(r Result) {
			if r.Err != nil && !errors.Is(r.Err, core.ErrNotReady) {
				results.Store(r.ID, r.Err)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, id := range []string{"victim", "bystander"} {
		if err := e.Register(id, newTestOnline(t)); err != nil {
			t.Fatal(err)
		}
	}
	feed := func(n int) {
		for i := 0; i < n; i++ {
			if err := e.Ingest("victim", signal(i)); err != nil {
				t.Fatal(err)
			}
			if err := e.Ingest("bystander", signal(i)); err != nil {
				t.Fatal(err)
			}
		}
		e.Drain()
	}
	feed(10)
	arm.Store(true)
	feed(10) // first victim sample panics; the other 9 are dropped

	st, _ := e.Stats("victim")
	if !st.Poisoned || st.Panics != 1 || !strings.Contains(st.Fault, "panic: boom") {
		t.Fatalf("victim stats = %+v, want poisoned with 1 recorded panic", st)
	}
	if st.Processed != 10 || st.Dropped != 9 {
		t.Errorf("victim processed/dropped = %d/%d, want 10/9", st.Processed, st.Dropped)
	}
	if errAny, ok := results.Load("victim"); !ok || !errors.Is(errAny.(error), ErrPoisoned) {
		t.Errorf("victim OnResult error = %v, want ErrPoisoned", errAny)
	}
	if by, _ := e.Stats("bystander"); by.Processed != 20 || by.Poisoned {
		t.Errorf("bystander stats = %+v; a sibling panic must not affect it", by)
	}
	if es := e.EngineStats(); es.Poisoned != 1 {
		t.Errorf("EngineStats.Poisoned = %d, want 1", es.Poisoned)
	}

	// Replace is the supervisor's restart: fault cleared, processing resumes.
	if err := e.Replace("victim", newTestOnline(t)); err != nil {
		t.Fatal(err)
	}
	st, _ = e.Stats("victim")
	if st.Poisoned || st.Fault != "" {
		t.Fatalf("after Replace: stats = %+v, want clean", st)
	}
	feed(5)
	if st, _ = e.Stats("victim"); st.Processed != 15 {
		t.Errorf("victim processed after restart = %d, want 15", st.Processed)
	}
}

func TestEngineIngestBatch(t *testing.T) {
	e, err := New(Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ids := []string{"a", "b", "c", "d", "e", "f"}
	for _, id := range ids {
		if err := e.Register(id, newTestOnline(t)); err != nil {
			t.Fatal(err)
		}
	}
	batch := make([]Sample, 0, len(ids))
	for i := 0; i < 120; i++ {
		batch = batch[:0]
		for _, id := range ids {
			batch = append(batch, Sample{ID: id, TS: int64(i), Value: signal(i)})
		}
		n, err := e.IngestBatch(batch)
		if err != nil || n != len(ids) {
			t.Fatalf("IngestBatch = %d, %v", n, err)
		}
	}
	e.Drain()
	for _, id := range ids {
		if st, _ := e.Stats(id); st.Processed != 120 {
			t.Errorf("stream %s processed = %d, want 120", id, st.Processed)
		}
	}
}

func TestEngineCloseRejectsIngest(t *testing.T) {
	e, err := New(Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Register("s", newTestOnline(t)); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := e.Ingest("s", 1); !errors.Is(err, ErrClosed) {
		t.Errorf("ingest after Close err = %v, want ErrClosed", err)
	}
	if _, err := e.IngestBatch([]Sample{{ID: "s", Value: 1}}); !errors.Is(err, ErrClosed) {
		t.Errorf("batch ingest after Close err = %v, want ErrClosed", err)
	}
}

func TestEngineMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	e, err := New(Config{Shards: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Register("m1", newTestOnline(t)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := e.Ingest("m1", signal(i)); err != nil {
			t.Fatal(err)
		}
	}
	e.Ingest("ghost", 1) // unknown stream, dropped
	e.Drain()

	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"larpredictor_engine_streams 1",
		"larpredictor_engine_ingested_total{shard=",
		"larpredictor_engine_queue_depth{shard=",
		"larpredictor_engine_unknown_dropped_total 1",
		"larpredictor_engine_batch_size",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	cases := map[string]Policy{
		"block": Block, "": Block, "drop-oldest": DropOldest, "dropoldest": DropOldest,
		"drop": DropOldest, "reject": Reject,
	}
	for in, want := range cases {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("ParsePolicy(bogus) succeeded, want error")
	}
	for p, s := range map[Policy]string{Block: "block", DropOldest: "drop-oldest", Reject: "reject"} {
		if p.String() != s {
			t.Errorf("Policy(%d).String() = %q, want %q", int(p), p.String(), s)
		}
	}
}

// TestEngineSteadyStateZeroAlloc pins the tentpole contract: once streams
// are warm, pushing a sample through ingest → shard queue → worker →
// Online.Step allocates nothing, so the engine's per-sample cost stays
// flat at fleet scale.
func TestEngineSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	e, err := New(Config{Shards: 1, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Register("hot", newTestOnline(t)); err != nil {
		t.Fatal(err)
	}
	i := 0
	next := func() float64 { i++; return signal(i) }
	for j := 0; j < 500; j++ {
		if err := e.Ingest("hot", next()); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()
	if st, _ := e.Stats("hot"); st.Health.State != core.Healthy {
		t.Fatalf("warm-up did not reach Healthy: %+v", st)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := e.Ingest("hot", next()); err != nil {
			t.Fatal(err)
		}
		e.Drain()
	})
	if allocs != 0 {
		t.Errorf("steady-state ingest+drain allocates %v per op, want 0", allocs)
	}
}

// TestEngineRestore: Restore builds the predictor with the engine's own
// factory and installs it with its state intact; a failed restore leaves
// the existing stream as it was.
func TestEngineRestore(t *testing.T) {
	factory := func(string) (*core.Online, error) { return newTestOnline(t), nil }
	src, err := New(Config{Shards: 1, NewStream: factory})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for i := 0; i < 80; i++ {
		if err := src.Ingest("s", signal(i)); err != nil {
			t.Fatal(err)
		}
	}
	src.Drain()
	saved := func(e *Engine) []byte {
		t.Helper()
		var buf bytes.Buffer
		var serr error
		if !e.Do("s", func(o *core.Online) { serr = o.SaveState(&buf) }) || serr != nil {
			t.Fatalf("capture: %v", serr)
		}
		return buf.Bytes()
	}
	state := saved(src)

	dst, err := New(Config{Shards: 1, NewStream: factory})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if err := dst.Restore("s", bytes.NewReader(state)); err != nil {
		t.Fatal(err)
	}
	if got := saved(dst); !bytes.Equal(got, state) {
		t.Fatal("restored predictor state differs from the state saved")
	}
	if err := dst.Restore("s", strings.NewReader("not a state")); !errors.Is(err, ErrBadState) {
		t.Fatalf("Restore of garbage = %v, want ErrBadState", err)
	}
	if got := saved(dst); !bytes.Equal(got, state) {
		t.Error("a failed Restore changed the installed predictor")
	}

	bare, err := New(Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if err := bare.Restore("s", bytes.NewReader(state)); !errors.Is(err, ErrUnknownStream) {
		t.Errorf("Restore without a factory = %v, want ErrUnknownStream", err)
	}
	broken, err := New(Config{Shards: 1, NewStream: func(string) (*core.Online, error) {
		return nil, errors.New("factory down")
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer broken.Close()
	if err := broken.Restore("s", bytes.NewReader(state)); err == nil || errors.Is(err, ErrBadState) {
		t.Errorf("Restore with a failing factory = %v, want a non-ErrBadState error", err)
	}
}
