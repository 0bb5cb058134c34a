// Package engine implements the sharded, batched multi-stream prediction
// engine: the fleet-scale front end of the LARPredictor system. One engine
// owns N shards (default GOMAXPROCS); stream IDs hash to shards; each
// shard's streams are driven by a single worker goroutine that drains a
// bounded MPSC ingest queue in batches. The design follows the
// one-lightweight-model-per-device regime of fleet monitoring: millions of
// independent streams, each with a microsecond-budget per-sample hot path.
//
// The steady-state ingest→forecast path performs zero heap allocations:
// enqueueing copies a Sample into a preallocated ring, the shard worker
// drains into a preallocated batch buffer, and core.Online.Step recycles
// its frame/projection scratch buffers through a shared sync.Pool — so the
// per-sample cost stays flat whether the engine drives one stream or a
// hundred thousand.
//
// Backpressure is explicit per engine: Block (lossless, producers wait),
// DropOldest (bounded staleness, oldest queued sample evicted), or Reject
// (shed load at the caller, ErrBacklog). Every stream is supervised: a
// panic while stepping one stream poisons only that stream — subsequent
// samples for it are dropped and counted until a supervisor swaps in a
// fresh predictor with Replace — and can never take down the shard worker
// or sibling streams.
package engine

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"github.com/acis-lab/larpredictor/internal/core"
	"github.com/acis-lab/larpredictor/internal/obs"
)

// Engine errors.
var (
	// ErrClosed is returned by ingest on a closed engine.
	ErrClosed = errors.New("engine: closed")
	// ErrBacklog is returned under the Reject policy when a shard's queue
	// is full.
	ErrBacklog = errors.New("engine: ingest queue full")
	// ErrUnknownStream is returned when a sample names a stream that is not
	// registered and the engine has no NewStream factory to create it.
	ErrUnknownStream = errors.New("engine: unknown stream")
	// ErrDuplicateStream is returned by Register for an already-registered
	// stream ID.
	ErrDuplicateStream = errors.New("engine: stream already registered")
	// ErrPoisoned marks the Result of a sample whose step panicked: the
	// stream is poisoned and drops samples until Replace swaps in a fresh
	// predictor. Delivered wrapped, so test with errors.Is.
	ErrPoisoned = errors.New("engine: stream poisoned by panic")
	// ErrBadState wraps a Restore whose state bytes do not load into the
	// stream's predictor: damaged, truncated or written under another
	// configuration. Callers may cold-start the stream; other Restore
	// errors come from the engine or its factory.
	ErrBadState = errors.New("engine: predictor state does not restore")
)

// FaultFailed is the fault string recorded for a stream whose predictor
// reached the terminal Failed health state (the stream itself keeps
// processing; restart policy belongs to the supervisor).
const FaultFailed = "health: Failed"

// Sample is one observation of one stream.
type Sample struct {
	// ID identifies the stream; it is hashed to pick the owning shard.
	ID string
	// TS is an opaque caller tag (conventionally a unix timestamp) carried
	// through to the Result untouched. The engine never interprets it.
	TS int64
	// Value is the observation.
	Value float64
}

// Result is delivered to Config.OnResult for every processed sample, on
// the owning shard's worker goroutine.
type Result struct {
	Sample
	// Pred is the one-step-ahead forecast issued after folding the sample
	// in; meaningful only when Err is nil.
	Pred core.Prediction
	// Health is the stream's fallback-ladder rung after the step.
	Health core.Health
	// Err is core.ErrNotReady during warm-up, core.ErrFailed for a
	// terminally failed predictor; the observation is recorded either way.
	Err error
}

// Policy selects the behavior of ingest against a full shard queue.
type Policy int

const (
	// Block makes producers wait for queue space: lossless, applies
	// backpressure upstream. The default.
	Block Policy = iota
	// DropOldest evicts the oldest queued sample to admit the newest:
	// bounded memory and bounded staleness, never blocks producers.
	DropOldest
	// Reject fails the ingest with ErrBacklog, shedding load at the caller.
	Reject
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case DropOldest:
		return "drop-oldest"
	case Reject:
		return "reject"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy maps the flag spellings ("block", "drop-oldest", "reject")
// to a Policy; the empty string selects the default, Block.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "block", "":
		return Block, nil
	case "drop-oldest", "dropoldest", "drop":
		return DropOldest, nil
	case "reject":
		return Reject, nil
	}
	return 0, fmt.Errorf("engine: unknown backpressure policy %q (want block, drop-oldest, or reject)", s)
}

// Config parameterizes an Engine. The zero value of every field is usable;
// a zero Config yields a GOMAXPROCS-sharded engine that rejects samples
// for unregistered streams.
type Config struct {
	// Shards is the number of shards, each with its own worker goroutine
	// and ingest queue. Defaults to runtime.GOMAXPROCS(0).
	Shards int
	// QueueDepth is each shard's ingest queue capacity. Defaults to 1024.
	QueueDepth int
	// Policy is the backpressure policy for full queues.
	Policy Policy
	// MaxBatch caps how many samples a worker drains per queue visit
	// (and sizes its reusable batch buffer). Defaults to 256.
	MaxBatch int
	// NewStream, when set, creates the predictor for a stream ID seen for
	// the first time. When nil, samples for unregistered streams are
	// dropped and counted (Stats.UnknownDropped).
	NewStream func(id string) (*core.Online, error)
	// OnResult, when set, receives every processed sample's outcome on the
	// owning shard's worker goroutine. It must not call back into the
	// engine's ingest or stats methods for the same shard.
	OnResult func(Result)
	// StepHook, when set, runs inside the per-sample supervision envelope
	// just before the stream steps. Chaos tests use it to inject panics.
	StepHook func(id string)
	// Metrics instruments the engine on this registry: per-shard queue
	// depth gauges, ingest/drop counters, and the worker batch-size
	// histogram. Nil leaves the engine uninstrumented.
	Metrics *obs.Registry
}

// stream is one supervised prediction stream, owned by its shard.
type stream struct {
	id     string
	online *core.Online

	processed uint64
	dropped   uint64 // samples skipped while poisoned
	panics    int
	poisoned  bool   // a panic unwound this stream's step; skip until Replace
	fault     string // last panic or terminal-health fault ("" when clean)
}

// StreamStats is a point-in-time snapshot of one stream's supervision
// state, for status endpoints and supervisors.
type StreamStats struct {
	// Processed counts samples stepped through the predictor.
	Processed uint64
	// Dropped counts samples discarded while the stream was poisoned.
	Dropped uint64
	// Panics counts recovered panics while stepping this stream.
	Panics int
	// Poisoned reports that the stream is skipping samples until a
	// supervisor calls Replace.
	Poisoned bool
	// Fault is the last recorded fault ("" when clean).
	Fault string
	// Health is the predictor's resilience snapshot.
	Health core.HealthStats
}

// Stats aggregates engine-wide counters.
type Stats struct {
	// Shards is the shard count.
	Shards int
	// Streams is the number of registered streams.
	Streams int
	// Ingested counts accepted samples.
	Ingested uint64
	// Processed counts samples stepped through a predictor.
	Processed uint64
	// Dropped counts samples evicted by DropOldest across all shards.
	Dropped uint64
	// UnknownDropped counts samples for unregistered streams with no
	// NewStream factory.
	UnknownDropped uint64
	// Poisoned counts currently poisoned streams.
	Poisoned int
}

// Engine is the sharded multi-stream prediction engine. All exported
// methods are safe for concurrent use.
type Engine struct {
	cfg    Config
	shards []*shard
	met    *engineMetrics

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup

	batchPool sync.Pool // *[][]Sample staging for IngestBatch
}

// New validates cfg, starts one worker per shard, and returns the running
// engine. Close releases the workers.
func New(cfg Config) (*Engine, error) {
	if cfg.Shards == 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("engine: %d shards < 1", cfg.Shards)
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 1024
	}
	if cfg.QueueDepth < 1 {
		return nil, fmt.Errorf("engine: queue depth %d < 1", cfg.QueueDepth)
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = 256
	}
	if cfg.MaxBatch < 1 {
		return nil, fmt.Errorf("engine: max batch %d < 1", cfg.MaxBatch)
	}
	switch cfg.Policy {
	case Block, DropOldest, Reject:
	default:
		return nil, fmt.Errorf("engine: unknown policy %d", int(cfg.Policy))
	}
	e := &Engine{cfg: cfg, met: newEngineMetrics(cfg.Metrics, cfg.Shards)}
	e.batchPool.New = func() any {
		per := make([][]Sample, cfg.Shards)
		return &per
	}
	e.shards = make([]*shard, cfg.Shards)
	for i := range e.shards {
		e.shards[i] = newShard(e, i)
	}
	e.wg.Add(len(e.shards))
	for _, sh := range e.shards {
		go sh.run()
	}
	return e, nil
}

// shardOf hashes a stream ID to its shard with FNV-1a; allocation free.
func (e *Engine) shardOf(id string) *shard {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return e.shards[h%uint64(len(e.shards))]
}

// Register adds a stream with an existing predictor — warm restarts hand
// restored state to the engine this way. It fails on duplicate IDs.
func (e *Engine) Register(id string, online *core.Online) error {
	if online == nil {
		return fmt.Errorf("engine: register %q: nil predictor", id)
	}
	sh := e.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.streams[id]; ok {
		return fmt.Errorf("engine: %q: %w", id, ErrDuplicateStream)
	}
	sh.streams[id] = &stream{id: id, online: online}
	e.met.streamsUp()
	return nil
}

// Replace swaps a stream's predictor for a fresh one and clears its
// poisoned/fault state — the supervisor's restart primitive. It registers
// the stream if it does not exist yet.
func (e *Engine) Replace(id string, online *core.Online) error {
	if online == nil {
		return fmt.Errorf("engine: replace %q: nil predictor", id)
	}
	sh := e.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.streams[id]
	if !ok {
		sh.streams[id] = &stream{id: id, online: online}
		e.met.streamsUp()
		return nil
	}
	st.online = online
	st.poisoned = false
	st.fault = ""
	return nil
}

// Restore builds a predictor for id with Config.NewStream, loads the core
// codec's framed state from r into it, and installs it the way Replace
// does. A state that does not load is reported as ErrBadState. On error
// the stream, if any, is left as it was.
func (e *Engine) Restore(id string, r io.Reader) error {
	if e.cfg.NewStream == nil {
		return fmt.Errorf("engine: restore %q: %w", id, ErrUnknownStream)
	}
	online, err := e.cfg.NewStream(id)
	if err != nil {
		return fmt.Errorf("engine: restore %q: %w", id, err)
	}
	if err := online.RestoreState(r); err != nil {
		return fmt.Errorf("engine: restore %q: %w: %w", id, ErrBadState, err)
	}
	return e.Replace(id, online)
}

// Ingest enqueues one observation for a stream. Under the Block policy it
// waits for queue space; under Reject it may return ErrBacklog.
func (e *Engine) Ingest(id string, v float64) error {
	return e.IngestSample(Sample{ID: id, Value: v})
}

// IngestSample is Ingest with an explicit Sample (callers that thread a
// timestamp tag use it).
func (e *Engine) IngestSample(s Sample) error {
	sh := e.shardOf(s.ID)
	if err := sh.q.enqueue(s, e.cfg.Policy); err != nil {
		return err
	}
	sh.noteIngest(1)
	return nil
}

// IngestBatch enqueues a batch of samples, grouping them by shard so each
// shard's queue lock is taken once per run of samples rather than once per
// sample. Sample order is preserved per stream. Each shard's run stops at
// that shard's first rejection while other shards' runs proceed
// independently, so under Reject a partially accepted batch returns the
// total accepted count (not an original-batch prefix) plus the first error
// observed; accepted samples are counted as ingested exactly once and are
// always processed. ErrClosed is reported as ErrClosed even when the losing
// shard's queue was also full.
func (e *Engine) IngestBatch(batch []Sample) (int, error) {
	if len(batch) == 0 {
		return 0, nil
	}
	perp := e.batchPool.Get().(*[][]Sample)
	per := *perp
	for i := range per {
		per[i] = per[i][:0]
	}
	for _, s := range batch {
		i := e.shardIndex(s.ID)
		per[i] = append(per[i], s)
	}
	accepted := 0
	var firstErr error
	for i, run := range per {
		if len(run) == 0 {
			continue
		}
		sh := e.shards[i]
		n, err := sh.q.enqueueBatch(run, e.cfg.Policy)
		accepted += n
		sh.noteIngest(n)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		per[i] = per[i][:0] // release Sample IDs promptly
	}
	*perp = per
	e.batchPool.Put(perp)
	return accepted, firstErr
}

func (e *Engine) shardIndex(id string) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return int(h % uint64(len(e.shards)))
}

// Drain blocks until every sample enqueued before the call has been fully
// processed — the barrier batch-oriented drivers (and tests) use between
// an ingest phase and a read phase.
func (e *Engine) Drain() {
	for _, sh := range e.shards {
		sh.q.drain()
	}
}

// Close drains and stops every shard worker. Ingest after Close fails with
// ErrClosed. Close is idempotent.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	for _, sh := range e.shards {
		sh.q.close()
	}
	e.wg.Wait()
	return nil
}

// Stats returns one stream's supervision snapshot.
func (e *Engine) Stats(id string) (StreamStats, bool) {
	sh := e.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.streams[id]
	if !ok {
		return StreamStats{}, false
	}
	return st.snapshot(), true
}

// Each calls f with every stream's supervision snapshot, shard by shard.
// f must not call back into the engine.
func (e *Engine) Each(f func(id string, st StreamStats)) {
	for _, sh := range e.shards {
		sh.mu.Lock()
		for id, st := range sh.streams {
			f(id, st.snapshot())
		}
		sh.mu.Unlock()
	}
}

// Do runs f against a stream's predictor while holding the shard lock —
// the checkpoint path uses it to serialize predictor state without racing
// the shard worker. f must not call back into the engine.
func (e *Engine) Do(id string, f func(*core.Online)) bool {
	sh := e.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.streams[id]
	if !ok {
		return false
	}
	f(st.online)
	return true
}

// EngineStats aggregates counters across shards.
func (e *Engine) EngineStats() Stats {
	s := Stats{Shards: len(e.shards)}
	for _, sh := range e.shards {
		sh.mu.Lock()
		s.Streams += len(sh.streams)
		s.Processed += sh.processed
		s.UnknownDropped += sh.unknownDropped
		for _, st := range sh.streams {
			if st.poisoned {
				s.Poisoned++
			}
		}
		sh.mu.Unlock()
		s.Ingested += sh.ingested.Load()
		s.Dropped += sh.evicted.Load()
	}
	return s
}

func (st *stream) snapshot() StreamStats {
	return StreamStats{
		Processed: st.processed,
		Dropped:   st.dropped,
		Panics:    st.panics,
		Poisoned:  st.poisoned,
		Fault:     st.fault,
		Health:    st.online.HealthStats(),
	}
}
