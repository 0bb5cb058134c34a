package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/acis-lab/larpredictor/internal/core"
	"github.com/acis-lab/larpredictor/internal/durable"
	"github.com/acis-lab/larpredictor/internal/engine"
	"github.com/acis-lab/larpredictor/internal/obs"
	"github.com/acis-lab/larpredictor/internal/server"
	"github.com/acis-lab/larpredictor/internal/wire"
)

// The traced run rebuilds predictd's pipeline in this process from the
// layers' public constructors, wired the way cmd/predictd wires it, and
// drives it with the same plan. Spans are recorded here, around each call
// into a layer; the layers themselves carry no tracing. The open-loop phase
// runs its first half with spans off and its second half with spans on for
// one batch in traceEvery, so the two halves' CPU per sample give the
// tracing overhead.

// traceEvery is the sampling rate of traced batches.
const traceEvery = 16

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's epoch; a batch's spans share its open-loop batch index. A span
// that follows from its parent (a sample's queue wait, step and fan-out run
// on a shard worker after the enqueue that caused them) is not nested in it
// and takes nothing off the parent's self time.
type span struct {
	Name    string `json:"name"`
	Batch   int    `json:"batch"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Follows bool   `json:"follows_from,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// nested returns a span nested in its parent.
func nested(name string, b int, id, parent, start, end int64) span {
	return span{Name: name, Batch: b, ID: id, Parent: parent, Start: start, End: end}
}

// tracer records the traced batches' spans.
type tracer struct {
	epoch       time.Time
	firstTraced int
	nextID      atomic.Int64

	// streams and batchOf are built before the run and only read after.
	streams map[string]*streamTrace
	// batchOf[s][j] is the open-loop batch carrying stream s's j-th sample
	// after the warm-up.
	batchOf [][]int32
	// Per open-loop batch, written before the batch is enqueued: the
	// client's round-trip span ID and the engine.enqueue span's ID and start.
	rootID, enqID, enqAt []int64

	mu    sync.Mutex
	spans []span
	cur   struct {
		id, start int64
		b         int
	} // the one ingest request in flight
	reads [3][]int64 // read handler durations by kind

	// walMu serializes the WAL hook's commits: a BatchWAL takes one
	// appender at a time, and the warm-up ingests over two connections.
	walMu sync.Mutex

	healthy, tournament, results atomic.Int64
}

func newTracer(p *plan) *tracer {
	n := len(p.open)
	tr := &tracer{
		epoch: time.Now(), firstTraced: n / 2,
		streams: make(map[string]*streamTrace, len(p.streams)),
		batchOf: make([][]int32, len(p.streams)),
		rootID:  make([]int64, n), enqID: make([]int64, n), enqAt: make([]int64, n),
	}
	for i := range p.streams {
		tr.streams[p.streams[i].id] = &streamTrace{tr: tr, idx: int32(i), b: -1}
	}
	for b, bt := range p.open {
		for _, s := range bt.samples {
			tr.batchOf[s.stream] = append(tr.batchOf[s.stream], int32(b))
		}
		if tr.traced(b) {
			tr.rootID[b] = tr.id()
		}
	}
	return tr
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.epoch)) }
func (tr *tracer) id() int64  { return tr.nextID.Add(1) }

func (tr *tracer) traced(b int) bool { return b >= tr.firstTraced && b%traceEvery == 0 }

// batch returns the open-loop batch carrying stream s's sample k, or -1 for
// warm-up samples.
func (tr *tracer) batch(s, k int32) int {
	j := k - warmPerStream
	if j < 0 || int(j) >= len(tr.batchOf[s]) {
		return -1
	}
	return int(tr.batchOf[s][j])
}

func (tr *tracer) batchOfSample(id string, ts int64) int {
	st, ok := tr.streams[id]
	if !ok {
		return -1
	}
	return tr.batch(st.idx, int32(ts-1))
}

func (tr *tracer) add(spans ...span) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, spans...)
	tr.mu.Unlock()
}

// enter and exit bracket a server-side ingest entry point. Only one ingest
// request is in flight at a time (one ingest connection), so the hook it
// calls finds its batch through cur.
func (tr *tracer) enter() (int64, int64) {
	id, start := tr.id(), tr.now()
	tr.mu.Lock()
	tr.cur.id, tr.cur.start, tr.cur.b = id, start, -1
	tr.mu.Unlock()
	return id, start
}

func (tr *tracer) exit(name string, id, start int64) {
	end := tr.now()
	tr.mu.Lock()
	if b := tr.cur.b; tr.cur.id == id && b >= 0 && tr.traced(b) {
		tr.spans = append(tr.spans, nested(name, b, id, tr.rootID[b], start, end))
	}
	tr.mu.Unlock()
}

// binaryIngest wraps the wire server's ingest callback.
func (tr *tracer) binaryIngest(next func(string, []wire.Sample) wire.Ack) func(string, []wire.Sample) wire.Ack {
	return func(source string, samples []wire.Sample) wire.Ack {
		id, start := tr.enter()
		ack := next(source, samples)
		tr.exit("server.binary_ingest", id, start)
		return ack
	}
}

// handler wraps the server's HTTP handler: ingest requests get a span,
// reads a duration by kind.
func (tr *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/ingest" {
			id, start := tr.enter()
			next.ServeHTTP(w, r)
			tr.exit("server.http_ingest", id, start)
			return
		}
		kind := readForecast
		switch {
		case r.URL.Path == "/v1/forecasts":
			kind = readBulk
		case strings.HasSuffix(r.URL.Path, "/history"):
			kind = readHistory
		}
		start := tr.now()
		next.ServeHTTP(w, r)
		d := tr.now() - start
		tr.mu.Lock()
		tr.reads[kind] = append(tr.reads[kind], d)
		tr.mu.Unlock()
	})
}

// ingestHook is the benchmark's own durability hook, the server.Config
// Ingest callback: with a WAL, Dedup.Apply → BatchWAL.Append → Sync →
// IngestBatch; without, IngestBatch alone. predictd's group-commit syncer is
// private to it, so this hook syncs every batch.
func (tr *tracer) ingestHook(eng *engine.Engine, dedup *server.Dedup, wal *durable.BatchWAL) func([]server.KeyedSample) (int, int, error) {
	return func(batch []server.KeyedSample) (accepted, deduped int, err error) {
		b := -1
		if len(batch) > 0 {
			b = tr.batchOfSample(batch[0].ID, batch[0].TS)
		}
		on := b >= 0 && tr.traced(b)
		var parent int64
		tr.mu.Lock()
		tr.cur.b, parent = b, tr.cur.id
		tr.mu.Unlock()
		var sp []span
		hookID, hookStart := tr.id(), tr.now()
		fresh := batch
		if wal != nil {
			var t [4]int64
			fresh, deduped, t, err = tr.commitWAL(dedup, wal, batch)
			if err != nil {
				return 0, deduped, err
			}
			if on {
				sp = append(sp,
					nested("dedup.apply", b, tr.id(), hookID, t[0], t[1]),
					nested("wal.append", b, tr.id(), hookID, t[1], t[2]),
					nested("wal.fsync", b, tr.id(), hookID, t[2], t[3]))
			}
		}
		samples := make([]engine.Sample, len(fresh))
		for i, ks := range fresh {
			samples[i] = ks.Sample
		}
		if on {
			// Set before the enqueue: a shard worker may step the batch's
			// first sample before IngestBatch returns.
			tr.enqID[b], tr.enqAt[b] = tr.id(), tr.now()
		}
		accepted, err = eng.IngestBatch(samples)
		if on {
			end := tr.now()
			sp = append(sp,
				nested("engine.enqueue", b, tr.enqID[b], hookID, tr.enqAt[b], end),
				nested("server.ingest_hook", b, hookID, parent, hookStart, end))
			tr.add(sp...)
		}
		return accepted, deduped, err
	}
}

// commitWAL marks the batch's keys in dedup, appends the new samples to the
// WAL and syncs it, returning the new samples, how many were duplicates,
// and the times each step began and the last ended.
func (tr *tracer) commitWAL(dedup *server.Dedup, wal *durable.BatchWAL, batch []server.KeyedSample) (fresh []server.KeyedSample, deduped int, t [4]int64, err error) {
	tr.walMu.Lock()
	defer tr.walMu.Unlock()
	t[0] = tr.now()
	fresh = make([]server.KeyedSample, 0, len(batch))
	for _, ks := range batch {
		if !dedup.Apply(ks.ID, ks.Source, ks.Seq) {
			deduped++
			continue
		}
		fresh = append(fresh, ks)
	}
	t[1] = tr.now()
	if err = wal.Append(appendWALBatch(nil, fresh)); err != nil {
		return nil, deduped, t, err
	}
	t[2] = tr.now()
	if err = wal.Sync(); err != nil {
		return nil, deduped, t, err
	}
	t[3] = tr.now()
	return fresh, deduped, t, nil
}

// stepHook runs on the shard worker before every predictor step.
func (tr *tracer) stepHook(id string) {
	st, ok := tr.streams[id]
	if !ok {
		return
	}
	k := st.k
	st.k++
	st.b = tr.batch(st.idx, k)
	if st.b >= 0 && tr.traced(st.b) {
		st.stepStart = tr.now()
	} else {
		st.b = -1
	}
}

// onResult is the engine's result fan-out, as predictd wires it, with the
// step's spans closed around it.
func (tr *tracer) onResult(cache *server.ResultCache, hist *server.HistoryStore) func(engine.Result) {
	return func(r engine.Result) {
		if r.TS > warmPerStream {
			tr.results.Add(1)
			switch r.Health {
			case core.Healthy:
				tr.healthy.Add(1)
			case core.Tournament:
				tr.tournament.Add(1)
			}
		}
		st := tr.streams[r.ID]
		if st == nil || st.b < 0 {
			cache.Record(r)
			hist.Record(r)
			return
		}
		t0 := tr.now()
		cache.Record(r)
		t1 := tr.now()
		hist.Record(r)
		t2 := tr.now()
		b, parent, stepID := st.b, tr.enqID[st.b], tr.id()
		follow := func(name string, id, start, end int64) span {
			return span{Name: name, Batch: b, ID: id, Parent: parent, Start: start, End: end, Follows: true}
		}
		sp := append(st.stages,
			follow("engine.queue_wait", tr.id(), tr.enqAt[b], st.stepStart),
			follow("core.step", stepID, st.stepStart, t0),
			follow("fanout.cache_record", tr.id(), t0, t1),
			follow("fanout.history_record", tr.id(), t1, t2))
		for i := range st.stages {
			sp[i].Batch, sp[i].ID, sp[i].Parent = b, tr.id(), stepID
		}
		tr.add(sp...)
		st.stages = st.stages[:0]
		st.b = -1
	}
}

// streamTrace is one stream's tracing state. Only the shard worker that
// owns the stream touches it during the run. It is also the obs.Tracer
// handed to the stream's predictor through core.WithTracer.
type streamTrace struct {
	tr        *tracer
	idx       int32
	k         int32 // the next step's sample index
	b         int   // traced batch of the current step, or -1
	stepStart int64
	stages    []span
}

// StartSpan implements obs.Tracer; untraced steps get a nil span.
func (st *streamTrace) StartSpan(stage obs.Stage) obs.Span {
	if st.b < 0 {
		return (*stageSpan)(nil)
	}
	return &stageSpan{st: st, name: "core." + string(stage), start: st.tr.now()}
}

type stageSpan struct {
	st    *streamTrace
	name  string
	start int64
}

func (s *stageSpan) End(error) {
	if s == nil {
		return
	}
	s.st.stages = append(s.st.stages, span{Name: s.name, Start: s.start, End: s.st.tr.now()})
}

// stages are the core pipeline stages, in data-path order.
var stages = []obs.Stage{
	obs.StageNormalize, obs.StagePCAProject, obs.StageKNNClassify, obs.StageExpertForecast,
	obs.StageQAAudit, obs.StageTrain, obs.StageFallbackForecast,
}

// appendWALBatch encodes a batch in predictd's WAL record layout: version
// byte, uvarint count, then per sample stream, zigzag TS, float bits,
// source and seq.
func appendWALBatch(buf []byte, batch []server.KeyedSample) []byte {
	buf = append(buf, 1)
	buf = binary.AppendUvarint(buf, uint64(len(batch)))
	for _, ks := range batch {
		buf = binary.AppendUvarint(buf, uint64(len(ks.ID)))
		buf = append(buf, ks.ID...)
		buf = binary.AppendVarint(buf, ks.TS)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(ks.Value))
		buf = binary.AppendUvarint(buf, uint64(len(ks.Source)))
		buf = append(buf, ks.Source...)
		buf = binary.AppendUvarint(buf, ks.Seq)
	}
	return buf
}

var errWALRecord = errors.New("malformed WAL record")

// decodeWALBatch decodes a record written by appendWALBatch into engine
// samples.
func decodeWALBatch(p []byte, out []engine.Sample) ([]engine.Sample, error) {
	if len(p) == 0 || p[0] != 1 {
		return nil, errWALRecord
	}
	p = p[1:]
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, errWALRecord
	}
	p = p[n:]
	str := func() (string, bool) {
		l, n := binary.Uvarint(p)
		if n <= 0 || uint64(len(p)-n) < l {
			return "", false
		}
		s := string(p[n : n+int(l)])
		p = p[n+int(l):]
		return s, true
	}
	out = out[:0]
	for i := uint64(0); i < count; i++ {
		var s engine.Sample
		var ok bool
		if s.ID, ok = str(); !ok {
			return nil, errWALRecord
		}
		ts, n := binary.Varint(p)
		if n <= 0 || len(p) < n+8 {
			return nil, errWALRecord
		}
		s.TS = ts
		s.Value = math.Float64frombits(binary.LittleEndian.Uint64(p[n:]))
		p = p[n+8:]
		if _, ok = str(); !ok {
			return nil, errWALRecord
		}
		if _, n = binary.Uvarint(p); n <= 0 {
			return nil, errWALRecord
		}
		p = p[n:]
		out = append(out, s)
	}
	return out, nil
}

// pipeline is the in-process predictd.
type pipeline struct {
	eng     *engine.Engine
	reg     *obs.Registry
	wal     *durable.BatchWAL
	walPath string
	wsrv    *wire.Server
	hsrv    *http.Server
	binAddr string
	webAddr string
}

// newPipeline assembles engine, read-path stores, server and both
// listeners the way cmd/predictd's run does, with the tracer's hooks.
func newPipeline(tr *tracer, w workload, dir string) (*pipeline, error) {
	pl := &pipeline{reg: obs.NewRegistry()}
	hist, err := server.NewHistoryStore(historyConfig)
	if err != nil {
		return nil, err
	}
	cache := server.NewResultCache()
	pl.eng, err = engine.New(engine.Config{
		NewStream: func(id string) (*core.Online, error) {
			st, ok := tr.streams[id]
			if !ok {
				return newReference()
			}
			return newReference(core.WithTracer(st))
		},
		OnResult: tr.onResult(cache, hist),
		StepHook: tr.stepHook,
		Metrics:  pl.reg,
	})
	if err != nil {
		return nil, err
	}
	cfg := server.Config{Engine: pl.eng, Cache: cache, History: hist, Registry: pl.reg}
	var dedup *server.Dedup
	if w.wal {
		dedup = server.NewDedup()
		pl.walPath = filepath.Join(dir, "trace.wal")
		if pl.wal, _, _, err = durable.OpenBatchWAL(pl.walPath); err != nil {
			pl.close()
			return nil, err
		}
		cfg.Applied = dedup.Applied
	}
	cfg.Ingest = tr.ingestHook(pl.eng, dedup, pl.wal)
	srv, err := server.New(cfg)
	if err != nil {
		pl.close()
		return nil, err
	}
	pl.wsrv, err = wire.NewServer(wire.ServerConfig{
		Ingest: tr.binaryIngest(srv.BinaryIngest), Draining: srv.Draining, Registry: pl.reg,
	})
	if err != nil {
		pl.close()
		return nil, err
	}
	bln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		pl.close()
		return nil, err
	}
	go pl.wsrv.Serve(bln)
	pl.binAddr = bln.Addr().String()
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		pl.close()
		return nil, err
	}
	pl.hsrv = &http.Server{Handler: tr.handler(srv.Handler()), ReadHeaderTimeout: 5 * time.Second}
	go pl.hsrv.Serve(hln)
	pl.webAddr = hln.Addr().String()
	return pl, nil
}

// close stops the listeners, the engine and the WAL.
func (pl *pipeline) close() {
	if pl.hsrv != nil {
		pl.hsrv.Close()
	}
	if pl.wsrv != nil {
		pl.wsrv.Close()
	}
	if pl.eng != nil {
		pl.eng.Close()
	}
	if pl.wal != nil {
		pl.wal.Close()
	}
}

// runTrace runs the plan of r, the untraced run, against the in-process
// pipeline and returns the per-layer metrics; some of them take r's scrapes
// and end-to-end latencies.
func runTrace(ctx context.Context, w workload, seed int64, ev env, r *e2e, stdout io.Writer) ([]metric, error) {
	prog := newProgress(ev.log, w.name+" trace")
	p := r.plan
	dir := filepath.Join(ev.workdir, fmt.Sprintf("%s-%d-%d-trace", w.name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tr := newTracer(p)
	pl, err := newPipeline(tr, w, dir)
	if err != nil {
		return nil, err
	}
	defer pl.close()
	if _, err := warmUp(ctx, pl.binAddr, p); err != nil {
		return nil, err
	}
	pl.eng.Drain()
	prog.step("warm-up")
	retrains0 := retrains(pl.eng)

	ph, cpu, depthMax, err := tracedPhase(ctx, w, p, pl)
	if err != nil {
		return nil, err
	}
	pl.eng.Drain()
	prog.step("open loop")
	samples := 0
	for _, n := range ph.t.acked {
		samples += int(n)
	}
	retrainsPer1k := float64(retrains(pl.eng)-retrains0) / float64(samples) * 1000

	// Client round trips close the traced batches' span trees.
	transport := "wire.roundtrip"
	if w.http {
		transport = "http.roundtrip"
	}
	for b := range p.open {
		if tr.traced(b) && !ph.ackAt[b].IsZero() {
			tr.add(nested(transport, b, tr.rootID[b], 0, int64(ph.sentAt[b].Sub(tr.epoch)), int64(ph.ackAt[b].Sub(tr.epoch))))
		}
	}
	if err := writeSpans(filepath.Join(ev.workdir, "spans-"+w.name+".jsonl"), tr.spans); err != nil {
		return nil, err
	}

	restoreUs, err := stateRestoreUs(pl.eng, p)
	if err != nil {
		return nil, err
	}
	decode := decodeUs(tr, p)
	var openRead, replayRate float64
	if w.wal {
		pl.close()
		if openRead, replayRate, err = replayWAL(pl.walPath, dir); err != nil {
			return nil, err
		}
	}
	prog.step("recovery layers")

	ms := traceMetrics(tr, w, p, r, traceInputs{
		cpu: cpu, depthMax: depthMax, retrainsPer1k: retrainsPer1k, restoreUs: restoreUs,
		decodeUs: decode, openRead: openRead, replayRate: replayRate,
	})
	printBudget(stdout, w, tr)
	return ms, nil
}

// retrains sums every stream's successful QA retrains.
func retrains(eng *engine.Engine) int {
	n := 0
	eng.Each(func(_ string, st engine.StreamStats) { n += st.Health.Retrains })
	return n
}

// phaseCPU is the harness's CPU per sample in each half of the open loop.
type phaseCPU struct{ off, on float64 }

// tracedPhase runs the open loop (ingest plus reads) against the pipeline,
// sampling process CPU at the half-way batch and the shard queue depth
// every millisecond.
func tracedPhase(ctx context.Context, w workload, p *plan, pl *pipeline) (*phaseResult, phaseCPU, float64, error) {
	var bodies [][]byte
	if w.http {
		for _, b := range p.open {
			bodies = append(bodies, p.jsonBatch(b))
		}
	}
	half := len(p.open) / 2
	depth := pl.reg.Gauge("larpredictor_engine_queue_depth", "", "shard")
	shards := pl.eng.EngineStats().Shards
	start := time.Now().Add(20 * time.Millisecond)
	stop := make(chan struct{})
	var cpu0, cpuMid time.Duration
	var depthMax float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		mid := time.NewTimer(time.Until(start.Add(p.open[half].due)))
		defer mid.Stop()
		for {
			select {
			case <-stop:
				return
			case <-mid.C:
				cpuMid = selfCPU()
			case <-tick.C:
				for i := 0; i < shards; i++ {
					depthMax = math.Max(depthMax, depth.WithLabels(strconv.Itoa(i)).Value())
				}
			}
		}
	}()
	cpu0 = selfCPU()
	done := make(chan struct{})
	go func() {
		defer close(done)
		reads := newHTTPConn(pl.webAddr)
		defer reads.close()
		openReads(ctx, reads, p, p.reads, 0, start)
	}()
	var ph *phaseResult
	var err error
	if w.http {
		ingest := newHTTPConn(pl.webAddr)
		ph = openHTTP(ctx, ingest, p, p.open, bodies, 0, start)
		ingest.close()
	} else {
		ph, err = openBinary(ctx, pl.binAddr, p, p.open, 0, start)
	}
	<-done
	pl.eng.Drain()
	cpu1 := selfCPU()
	close(stop)
	wg.Wait()
	if err != nil {
		return nil, phaseCPU{}, 0, err
	}
	var n0, n1 int
	for b, bt := range p.open {
		if b < half {
			n0 += len(bt.samples)
		} else {
			n1 += len(bt.samples)
		}
	}
	cpu := phaseCPU{
		off: float64(cpuMid-cpu0) / float64(n0),
		on:  float64(cpu1-cpuMid) / float64(n1),
	}
	return ph, cpu, depthMax, nil
}

// writeSpans writes one JSON span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stateRestoreUs times Online.RestoreState on every stream's saved state
// and returns the mean per stream in µs.
func stateRestoreUs(eng *engine.Engine, p *plan) (float64, error) {
	var total time.Duration
	var n int
	var buf bytes.Buffer
	var err error
	for i := range p.streams {
		buf.Reset()
		eng.Do(p.streams[i].id, func(o *core.Online) { err = o.SaveState(&buf) })
		if err != nil {
			return 0, err
		}
		o, nerr := newReference()
		if nerr != nil {
			return 0, nerr
		}
		t0 := time.Now()
		err = o.RestoreState(bytes.NewReader(buf.Bytes()))
		total += time.Since(t0)
		if err != nil {
			return 0, err
		}
		n++
	}
	return float64(total) / float64(time.Microsecond) / float64(n), nil
}

// decodeUs times wire.BatchDecoder.Decode over the traced batches' frames,
// with the decoder's intern table warm as on a long-lived connection.
func decodeUs(tr *tracer, p *plan) float64 {
	var frames [][]byte
	var enc wire.Encoder
	var buf []wire.Sample
	for b := range p.open {
		if tr.traced(b) {
			buf = p.wireBatch(p.open[b], buf)
			f := enc.AppendBatch(nil, uint64(b), keySource, buf)
			frames = append(frames, f[4+1:len(f)-4]) // record length, frame type, CRC
		}
	}
	if len(frames) == 0 {
		return 0
	}
	var dec wire.BatchDecoder
	for _, f := range frames {
		dec.Decode(f)
	}
	t0 := time.Now()
	for _, f := range frames {
		dec.Decode(f)
	}
	return float64(time.Since(t0)) / float64(time.Microsecond) / float64(len(frames))
}

// replayWAL opens a copy of the filled log (OpenBatchWAL) and replays its
// records into a fresh engine (IngestBatch, then Drain), the WAL read path
// of a restart.
func replayWAL(path, dir string) (openRead, samplesPerS float64, err error) {
	cp := filepath.Join(dir, "copy.wal")
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	if err := os.WriteFile(cp, b, 0o644); err != nil {
		return 0, 0, err
	}
	b = nil
	t0 := time.Now()
	w, recs, _, err := durable.OpenBatchWAL(cp)
	if err != nil {
		return 0, 0, err
	}
	openRead = time.Since(t0).Seconds()
	w.Close()
	eng, err := engine.New(engine.Config{NewStream: func(string) (*core.Online, error) { return newReference() }})
	if err != nil {
		return 0, 0, err
	}
	defer eng.Close()
	var samples []engine.Sample
	n := 0
	t0 = time.Now()
	for _, rec := range recs {
		if samples, err = decodeWALBatch(rec, samples); err != nil {
			return 0, 0, err
		}
		if _, err := eng.IngestBatch(samples); err != nil {
			return 0, 0, err
		}
		n += len(samples)
	}
	eng.Drain()
	return openRead, float64(n) / time.Since(t0).Seconds(), nil
}

// selfTimes returns every span's self time: its duration minus the part of
// its interval that its nested children cover.
func selfTimes(spans []span) []int64 {
	children := map[int64][]int{}
	for i, s := range spans {
		if s.Parent != 0 && !s.Follows {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		var iv [][2]int64
		for _, c := range children[s.ID] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, reach int64
		for _, x := range iv {
			if x[0] < reach {
				x[0] = reach
			}
			if x[1] > x[0] {
				covered += x[1] - x[0]
				reach = x[1]
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// traceInputs are the measurements runTrace takes besides the spans.
type traceInputs struct {
	cpu                  phaseCPU
	depthMax             float64
	retrainsPer1k        float64
	restoreUs, decodeUs  float64
	openRead, replayRate float64
}

// layerStats groups span durations and self times by name.
type layerStats struct {
	dur, self map[string][]float64 // µs
}

func newLayerStats(spans []span) layerStats {
	ls := layerStats{dur: map[string][]float64{}, self: map[string][]float64{}}
	self := selfTimes(spans)
	for i, s := range spans {
		ls.dur[s.Name] = append(ls.dur[s.Name], float64(s.dur())/1e3)
		ls.self[s.Name] = append(ls.self[s.Name], float64(self[i])/1e3)
	}
	return ls
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func sum(v []float64) float64 { return mean(v) * float64(len(v)) }

// traceMetrics computes the per-layer metrics in BENCHMARK.json order.
func traceMetrics(tr *tracer, w workload, p *plan, r *e2e, in traceInputs) []metric {
	ls := newLayerStats(tr.spans)
	q := func(v []float64, x float64) float64 { return quantile(append([]float64(nil), v...), x) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	// Per-sample dedup cost: the dedup span over the samples of its batch.
	var dedupNs []float64
	for _, s := range tr.spans {
		if s.Name == "dedup.apply" {
			dedupNs = append(dedupNs, float64(s.dur())/float64(len(p.open[s.Batch].samples)))
		}
	}
	// The commit wait is what the daemon's ack spends beyond the traced
	// ack path without its per-batch fsync: group-commit window and fsync.
	var commitWait float64
	if w.wal {
		fsync := map[int]int64{}
		for _, s := range tr.spans {
			if s.Name == "wal.fsync" {
				fsync[s.Batch] = s.dur()
			}
		}
		var path []float64
		for _, s := range tr.spans {
			if s.Name == "wire.roundtrip" || s.Name == "http.roundtrip" {
				path = append(path, float64(s.dur()-fsync[s.Batch])/1e6)
			}
		}
		commitWait = median(r.ackP50) - q(path, 0.5)
	}
	sc := r.scrape
	nonOK := sc["predictd_wire_acks_total"] - sc[`predictd_wire_acks_total{status="ok"}`]
	var samplesPerAppend float64
	if w.wal {
		samplesPerAppend = ratio(sc["predictd_ingest_samples_accepted_total"], sc["predictd_wal_appends_total"])
	}
	var steps float64
	for _, d := range ls.dur["core.step"] {
		steps += d
	}
	// Durations and self times are medians: a few traced batches hit an
	// fsync stall or a GC pause, and one of those would swamp a mean.
	med := func(v []float64) float64 { return q(v, 0.5) }
	p99 := func(v []float64) float64 { return q(v, 0.99) }
	ms := []metric{
		{"wire.decode_us", in.decodeUs, "us"},
		{"wire.self_us", med(ls.self["wire.roundtrip"]), "us"},
		{"wire.batches", sc["predictd_wire_batches_total"], "count"},
		{"wire.acks_nonok", nonOK, "count"},
		{"http.self_us", med(ls.self["http.roundtrip"]), "us"},
		{"server.ingest_keyed_self_us", med(ls.self["server.binary_ingest"]), "us"},
		{"server.http_ingest_self_us", med(ls.self["server.http_ingest"]), "us"},
		{"dedup.apply_ns", med(dedupNs), "ns"},
		{"dedup.hits", sc["predictd_dedup_hits_total"], "count"},
		{"wal.append_us", med(ls.dur["wal.append"]), "us"},
		{"wal.fsync_ms", med(ls.dur["wal.fsync"]) / 1e3, "ms"},
		{"wal.commit_wait_ms", commitWait, "ms"},
		{"wal.samples_per_append", samplesPerAppend, "count"},
		{"wal.open_read_s", in.openRead, "s"},
		{"engine.enqueue_us", med(ls.dur["engine.enqueue"]), "us"},
		{"engine.queue_wait_p50_us", med(ls.dur["engine.queue_wait"]), "us"},
		{"engine.queue_wait_p90_us", q(ls.dur["engine.queue_wait"], 0.9), "us"},
		{"engine.queue_depth_max", in.depthMax, "count"},
		{"engine.drain_batch_mean", ratio(sc["larpredictor_engine_batch_size_sum"], sc["larpredictor_engine_batch_size_count"]), "count"},
		{"engine.replay_samples_per_s", in.replayRate, "samples/s"},
		{"core.step_p50_us", med(ls.dur["core.step"]), "us"},
		{"core.step_p90_us", q(ls.dur["core.step"], 0.9), "us"},
	}
	for _, st := range stages {
		name := "core." + string(st)
		ms = append(ms,
			metric{name + "_self_us", med(ls.self[name]), "us"},
			metric{name + "_share", ratio(sum(ls.dur[name]), steps), "ratio"})
	}
	results := float64(tr.results.Load())
	ms = append(ms,
		metric{"core.retrains_per_1k", in.retrainsPer1k, "count"},
		metric{"core.lar_rung_share", ratio(float64(tr.healthy.Load()), results), "ratio"},
		metric{"core.tournament_rung_share", ratio(float64(tr.tournament.Load()), results), "ratio"},
		metric{"recover.state_restore_us_per_stream", in.restoreUs, "us"},
		metric{"fanout.cache_record_ns", med(ls.dur["fanout.cache_record"]) * 1e3, "ns"},
		metric{"fanout.history_record_ns", med(ls.dur["fanout.history_record"]) * 1e3, "ns"},
		metric{"sse.gaps", float64(r.sseGaps), "count"},
	)
	tr.mu.Lock()
	for k, name := range []string{"read.forecast_self_us", "read.bulk_self_us", "read.history_self_us"} {
		var us []float64
		for _, d := range tr.reads[k] {
			us = append(us, float64(d)/1e3)
		}
		ms = append(ms, metric{name, med(us), "us"})
	}
	tr.mu.Unlock()
	ms = append(ms,
		metric{"read.bulk_304_share", ratio(float64(r.bulk304), float64(r.bulk)), "ratio"},
		metric{"gen.late_p90_ms", q(r.late, 0.9), "ms"},
		metric{"gen.cpu_share", ratio(r.genCPU.Seconds(), r.genWall.Seconds()), "ratio"},
		metric{"trace.overhead", ratio(in.cpu.on, in.cpu.off), "ratio"},
		metric{"ack_p99_ms", p99(r.ackAll), "ms"},
		metric{"ack_p99_samples", float64(len(r.ackAll)), "count"},
		metric{"fresh_p99_ms", p99(r.freshAll), "ms"},
		metric{"fresh_p99_samples", float64(len(r.freshAll)), "count"},
		metric{"read_p99_ms", p99(r.readAll), "ms"},
		metric{"read_p99_samples", float64(len(r.readAll)), "count"},
	)
	return ms
}

// printBudget prints where a traced ack's and a traced sample's time went,
// with each layer's share of the path by means, which add up. The ack path
// is nested calls, so each layer counts its self time; after the enqueue a
// sample's spans follow one another, so each counts its whole duration.
func printBudget(w io.Writer, wl workload, tr *tracer) {
	ls := newLayerStats(tr.spans)
	rows := func(path string, times map[string][]float64, names []string) {
		var total float64
		for _, n := range names {
			total += mean(times[n])
		}
		for _, n := range names {
			if len(times[n]) == 0 {
				continue
			}
			m := mean(times[n])
			fmt.Fprintf(w, "%s budget %-5s %-22s mean %9.1f us  p50 %9.1f us  %5.1f%% of the path\n",
				wl.name, path, n, m, quantile(times[n], 0.5), 100*m/total)
		}
	}
	rows("ack", ls.self, []string{"wire.roundtrip", "http.roundtrip", "server.binary_ingest", "server.http_ingest",
		"server.ingest_hook", "dedup.apply", "wal.append", "wal.fsync", "engine.enqueue"})
	rows("fresh", ls.dur, []string{"engine.queue_wait", "core.step", "fanout.cache_record", "fanout.history_record"})
}
