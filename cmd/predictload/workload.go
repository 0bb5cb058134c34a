package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// workload is one traffic mix. Every workload runs the same sequence —
// set-up, open-loop segments (ingest with probes woven in, SSE on the
// probes, reads), closed-loop saturation segments, then restarts on the
// state the run built — so every end-to-end metric is measured on every
// workload; the mixes differ in which layers do most of the work. Why each
// mix exists is recorded in BENCHMARK.json and README.md.
type workload struct {
	name      string
	wal       bool // -durability wal (else snapshot)
	http      bool // ingest as JSON over HTTP (else the binary listener)
	snapFirst bool // graceful snapshot and restart between set-up and phases
	batch     int  // open-loop batch size
	rate      int  // open-loop ingest samples/s, probes included
	readRate  int  // open-loop reads/s
}

var workloads = []workload{
	// One connection's acks wait for each group fsync; ~22k samples/s caps it.
	{name: "wal-binary", wal: true, batch: batchSize, rate: 12000, readRate: 200},
	// Acks return at enqueue; the shard step does the work. Below about
	// 40k samples/s the daemon's threads idle between batches and waking
	// them, not the pipeline, sets the latencies.
	{name: "snap-binary", batch: batchSize, rate: 40000, readRate: 200},
	// 400 reads/s leaves the one read connection room beside this ingest;
	// at 2,000/s it fell behind and its latency grew with the phase.
	{name: "http-mixed", http: true, batch: batchSize, rate: 25000, readRate: 400},
	// Bulk batches fill the WAL tail the restarts replay on top of the
	// snapshot written after set-up.
	{name: "recover", wal: true, snapFirst: true, batch: warmBatch, rate: 25000, readRate: 200},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupRuns and restarts are how many times a run sets up and restarts;
// each reports its median (the smoke mode does fewer). A run's first set-up
// is usually its slowest, so five keep the median off it. segments is how
// many open-loop and saturation segments a run measures, each on fresh
// connections; a per-segment figure reports its median over them. On two
// shared vCPUs each connection settles at a latency and throughput level of
// its own, so one long phase on one connection measures a single draw.
const (
	setupRuns = 5
	restarts  = 3
	segments  = 16
)

// env is what every run shares.
type env struct {
	bin     string // predictd binary
	workdir string
	smoke   bool
	log     io.Writer // progress lines
}

// progress writes one timestamped line per step of a run.
type progress struct {
	w     io.Writer
	name  string
	start time.Time
	last  time.Time
}

func newProgress(w io.Writer, name string) *progress {
	now := time.Now()
	return &progress{w: w, name: name, start: now, last: now}
}

func (p *progress) step(format string, args ...any) {
	now := time.Now()
	fmt.Fprintf(p.w, "predictload: %s %6.2fs (+%.2fs) %s\n", p.name, now.Sub(p.start).Seconds(), now.Sub(p.last).Seconds(), fmt.Sprintf(format, args...))
	p.last = now
}

// sizesFor scales a workload to a run of the given total measured seconds:
// three quarters open loop, one quarter saturation, each split into equal
// segments.
func (w workload) sizesFor(seconds float64, smoke bool) sizes {
	sz := sizes{
		streams: 5000, segments: segments, setups: setupRuns, restarts: restarts,
		batch: w.batch, rate: w.rate, readRate: w.readRate,
	}
	if smoke {
		sz.streams, sz.segments, sz.setups, sz.restarts = 500, 2, 1, 2
	}
	total := time.Duration(seconds * float64(time.Second))
	n := time.Duration(sz.segments)
	sz.segFor, sz.satFor = total*3/4/n, total/4/n
	return sz
}

// e2e is everything the untraced run measured.
type e2e struct {
	setup []float64 // s
	// Per open-loop segment, over its OK operations: latency quantiles (ms)
	// and the daemon's CPU per acked sample (µs).
	ackP50, ackP90, freshP50, freshP90, readP50, readP90, cpu []float64
	// Per saturation segment: samples acked per second.
	satRate []float64
	// Every OK operation's latency (ms), for the p99s.
	ackAll, freshAll, readAll []float64
	late                      []float64 // ms
	rssMB                     float64
	recover                   []float64 // s
	nmse                      float64
	genCPU, genWall           time.Duration // generator CPU and wall time over the open loop

	attempted, failed int
	problems          []error // correctness failures
	sseGaps           int
	bulk, bulk304     int
	// scrape holds /metrics deltas over the open loop, by series.
	scrape map[string]float64
	plan   *plan
	events []sseEvent // every open-loop segment's probe events, in order
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// runE2E runs one workload against a predictd process. With abortLate, a run
// whose generator ran late in the open loop (see lateLimitMs) stops there,
// since it will be made again.
func runE2E(ctx context.Context, w workload, seed int64, sz sizes, ev env, abortLate bool) (*e2e, error) {
	prog := newProgress(ev.log, w.name)
	p := newPlan(seed, sz)
	r := &e2e{plan: p}
	prog.step("plan: %d streams, %d open-loop batches and %d reads in %d segments", len(p.streams), len(p.open), len(p.reads), p.segments())
	dir := filepath.Join(ev.workdir, fmt.Sprintf("%s-%d-%d", w.name, seed, os.Getpid()))
	defer os.RemoveAll(dir)
	durability := "snapshot"
	if w.wal {
		durability = "wal"
	}

	// Set-up: exec to ready plus the warm-up, taken in by the engine, each
	// time from empty state; the last daemon carries on.
	scraper := newHTTPClient()
	var d *daemon
	var state string
	var acked []int32
	for i := 0; i < sz.setups; i++ {
		state = filepath.Join(dir, fmt.Sprintf("state%d", i))
		t0 := time.Now()
		var err error
		if d, err = startDaemon(ev.bin, state, durability); err != nil {
			return nil, err
		}
		t, err := warmUp(ctx, d.binAddr, p)
		if err == nil {
			err = waitIdle(ctx, scraper, d.httpAddr)
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
		r.attempted += t.attempted
		r.failed += t.failed
		if err != nil {
			d.kill()
			return nil, err
		}
		acked = t.acked
		prog.step("set-up %d: %.3fs", i+1, r.setup[i])
		if i < sz.setups-1 {
			d.kill()
			os.RemoveAll(state)
		}
	}
	defer func() { d.kill() }()
	// restored counts what a snapshot restore brings back without stepping.
	restored := make([]int32, len(p.streams))
	if w.snapFirst {
		if err := d.term(); err != nil {
			return nil, err
		}
		var err error
		if d, err = startDaemon(ev.bin, state, durability); err != nil {
			return nil, err
		}
		copy(restored, acked)
		prog.step("snapshot and restart")
	}
	base := append([]int32(nil), acked...)

	before, err := scrape(ctx, scraper, d.httpAddr)
	if err != nil {
		return nil, err
	}
	for j := 0; j < p.segments(); j++ {
		if err := r.openSegment(ctx, w, d, j, acked); err != nil {
			return nil, fmt.Errorf("open-loop segment %d: %w", j+1, err)
		}
	}
	after, err := scrape(ctx, scraper, d.httpAddr)
	if err != nil {
		return nil, err
	}
	r.scrape = map[string]float64{}
	for k, v := range after {
		r.scrape[k] = v - before[k]
	}
	prog.step("open loop")
	if late := r.lateP90(); abortLate && late > lateLimitMs {
		prog.step("generator late by %.3f ms at p90: attempt abandoned", late)
		return r, nil
	}
	for j := 0; j < p.segments(); j++ {
		if err := r.saturate(ctx, w, d, sz.satFor, acked); err != nil {
			return nil, fmt.Errorf("saturation segment %d: %w", j+1, err)
		}
	}
	if r.rssMB, err = peakRSS(d.cmd.Process.Pid); err != nil {
		return nil, err
	}
	prog.step("saturation")

	// State before any restart, then after each; every stream's history seq
	// is read before the first restart and after the last.
	refs, err := references(p, acked)
	if err != nil {
		return nil, err
	}
	clients := []*http.Client{newHTTPClient(), newHTTPClient()}
	want := expectation{acked: acked, processed: make([]int32, len(acked)), wal: w.wal, refs: refs, allSeqs: true}
	for i := range acked {
		want.processed[i] = acked[i] - restored[i]
	}
	prog.step("reference forecasts")
	if err := waitIdle(ctx, scraper, d.httpAddr); err != nil {
		return nil, err
	}
	r.check("before restart", verifyState(ctx, clients, "http://"+d.httpAddr, p, want))
	r.checkProbes(base, acked, refs)
	prog.step("verified")

	// Every restart redoes identical work: with a WAL, kill -9 leaves the
	// same snapshot and WAL tail to replay; without one, the first SIGTERM
	// writes the snapshot and later kill -9s leave it unchanged.
	for i := 0; i < sz.restarts; i++ {
		if w.wal || i > 0 {
			d.kill()
		} else if err := d.term(); err != nil {
			return nil, err
		}
		if d, err = startDaemon(ev.bin, state, durability); err != nil {
			return nil, err
		}
		r.recover = append(r.recover, d.ready.Seconds())
		prog.step("restart %d: ready in %.3fs", i+1, d.ready.Seconds())
		if !w.wal {
			// A snapshot restore steps nothing.
			clear(want.processed)
		}
		want.allSeqs = i == sz.restarts-1
		r.check(fmt.Sprintf("after restart %d", i+1), verifyState(ctx, clients, "http://"+d.httpAddr, p, want))
		prog.step("verified")
	}
	if r.failed > 0 {
		r.problems = append(r.problems, fmt.Errorf("%d of %d operations failed or went missing", r.failed, r.attempted))
	}
	return r, nil
}

// lateP90 is the generator's p90 lateness over the open loop, in ms.
func (r *e2e) lateP90() float64 { return quantile(append([]float64(nil), r.late...), 0.9) }

func (r *e2e) check(when string, err error) {
	if err != nil {
		r.problems = append(r.problems, fmt.Errorf("%s: %w", when, err))
	}
}

// openSegment runs open-loop segment j on fresh connections: ingest at the
// batches' due times over the workload's transport, reads at theirs over a
// second connection, and an SSE subscription to the probes on a third. It
// adds what was acked to acked.
func (r *e2e) openSegment(ctx context.Context, w workload, d *daemon, j int, acked []int32) error {
	p := r.plan
	batches := p.open[p.openSeg[j]:p.openSeg[j+1]]
	reads := p.reads[p.readSeg[j]:p.readSeg[j+1]]
	offset := time.Duration(j) * p.segFor
	pid := d.cmd.Process.Pid
	var bodies [][]byte
	if w.http {
		for _, b := range batches {
			bodies = append(bodies, p.jsonBatch(b))
		}
	}
	sub, err := subscribeProbes(ctx, newHTTPClient(), d.httpAddr, p, acked)
	if err != nil {
		return err
	}
	defer sub.close()
	ingest, rconn := newHTTPConn(d.httpAddr), newHTTPConn(d.httpAddr)
	defer ingest.close()
	defer rconn.close()
	// The generator's own collections would stop its clocks and take CPU
	// from the daemon at random moments, so it does not collect while it
	// measures; what a segment allocates stays well under the limit, which
	// only guards against a runaway.
	runtime.GC()
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(1 << 30))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cpu0, err := cpuTime(pid)
	if err != nil {
		return err
	}
	gen0 := selfCPU()
	start := time.Now().Add(20 * time.Millisecond)

	var ph *phaseResult
	var rr *readResult
	done := make(chan struct{})
	go func() {
		defer close(done)
		rr = openReads(ctx, rconn, p, reads, offset, start)
	}()
	if w.http {
		ph = openHTTP(ctx, ingest, p, batches, bodies, offset, start)
	} else if ph, err = openBinary(ctx, d.binAddr, p, batches, offset, start); err != nil {
		<-done
		return err
	}
	<-done
	elapsed := time.Since(start)
	cpu1, err := cpuTime(pid)
	if err != nil {
		return err
	}
	r.genCPU += selfCPU() - gen0
	r.genWall += elapsed

	var samples int
	for i, n := range ph.t.acked {
		acked[i] += n
		samples += int(n)
	}
	r.attempted += ph.t.attempted + rr.attempted
	r.failed += ph.t.failed + rr.failed
	var ack []float64
	for i := range batches {
		if !ph.ackAt[i].IsZero() {
			ack = append(ack, msOf(ph.ackAt[i].Sub(ph.batchDue[i])))
		}
	}
	r.ackP50 = append(r.ackP50, quantile(ack, 0.5))
	r.ackP90 = append(r.ackP90, quantile(ack, 0.9))
	r.ackAll = append(r.ackAll, ack...)
	r.readP50 = append(r.readP50, quantile(rr.lat, 0.5))
	r.readP90 = append(r.readP90, quantile(rr.lat, 0.9))
	r.readAll = append(r.readAll, rr.lat...)
	r.late = append(r.late, ms(ph.late)...)
	r.late = append(r.late, ms(rr.late)...)
	r.bulk += rr.bulk
	r.bulk304 += rr.bulk304
	if samples > 0 {
		r.cpu = append(r.cpu, float64(cpu1-cpu0)/float64(time.Microsecond)/float64(samples))
	}

	// Wait for the probes' events before the next segment, so its load
	// does not delay them. A probe sample's freshness runs from its batch's
	// due time to its event's arrival.
	var want int
	for i := 0; i < numProbes; i++ {
		want += int(ph.t.acked[p.probe(i)])
	}
	for deadline := time.Now().Add(5 * time.Second); sub.count() < want && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	events, serr := sub.close()
	if serr != nil {
		r.problems = append(r.problems, fmt.Errorf("SSE: %w", serr))
	}
	due := make(map[[2]int32]time.Time)
	for i, b := range batches {
		for _, s := range b.samples {
			if p.isProbe(s.stream) {
				due[[2]int32{s.stream, s.k}] = ph.batchDue[i]
			}
		}
	}
	probes := p.probeIndex()
	var fresh []float64
	for _, e := range events {
		if e.err != nil {
			continue
		}
		if at, ok := due[[2]int32{probes[e.ev.Stream], int32(e.ev.Seq) - 1}]; ok {
			fresh = append(fresh, msOf(e.at.Sub(at)))
		}
	}
	r.freshP50 = append(r.freshP50, quantile(fresh, 0.5))
	r.freshP90 = append(r.freshP90, quantile(fresh, 0.9))
	r.freshAll = append(r.freshAll, fresh...)
	r.events = append(r.events, events...)
	return nil
}

// saturate runs one saturation segment: batches drawn from the plan's
// saturation sequence, closed loop over a fresh connection of the
// workload's transport, until d has passed. It adds what was acked to
// acked.
func (r *e2e) saturate(ctx context.Context, w workload, d *daemon, dur time.Duration, acked []int32) error {
	start := time.Now()
	deadline := start.Add(dur)
	var t *tally
	if w.http {
		hc := newHTTPConn(d.httpAddr)
		defer hc.close()
		t = saturateHTTP(ctx, hc, r.plan, deadline)
	} else {
		var err error
		if t, err = saturateBinary(ctx, d.binAddr, r.plan, deadline); err != nil {
			return err
		}
	}
	for i, n := range t.acked {
		acked[i] += n
	}
	r.attempted += t.attempted
	r.failed += t.failed
	r.satRate = append(r.satRate, t.rate(deadline, dur))
	return nil
}

// checkProbes verifies the captured SSE events against the probe samples
// acked after base, and takes the forecast error from them.
func (r *e2e) checkProbes(base, acked []int32, refs map[int32][]float64) {
	rep := checkProbes(r.plan, r.events, base, acked, refs)
	r.nmse = rep.nmse
	r.sseGaps = rep.gaps
	r.attempted += rep.expected
	if missing := rep.expected - rep.received; missing > 0 {
		r.failed += missing
		r.problems = append(r.problems, fmt.Errorf("SSE: %d of %d probe events missing", missing, rep.expected))
	}
	r.check("SSE", rep.mismatch.err())
}

var errInvalid = errors.New("invalid run")
