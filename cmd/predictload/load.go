package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/acis-lab/larpredictor/internal/server"
	"github.com/acis-lab/larpredictor/internal/wire"
)

// tally counts operations attempted and failed and the samples each stream
// had acked. One goroutine at a time owns a tally.
type tally struct {
	attempted, failed int
	acked             []int32 // per stream
	// okAt and okN record when each OK ack arrived and how many samples it
	// covered.
	okAt []time.Time
	okN  []int
}

func newTally(p *plan) *tally { return &tally{acked: make([]int32, len(p.streams))} }

// ack records the outcome of batch b, acked at at.
func (t *tally) ack(b batch, ok bool, at time.Time) {
	t.attempted++
	if !ok {
		t.failed++
		return
	}
	for _, s := range b.samples {
		t.acked[s.stream]++
	}
	t.okAt = append(t.okAt, at)
	t.okN = append(t.okN, len(b.samples))
}

// add folds o into t.
func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for i, n := range o.acked {
		t.acked[i] += n
	}
}

// rate is the samples/s acked OK in a closed loop that ran for d until
// deadline; acks still in flight at the deadline do not count.
func (t *tally) rate(deadline time.Time, d time.Duration) float64 {
	var n int
	for i, at := range t.okAt {
		if !at.After(deadline) {
			n += t.okN[i]
		}
	}
	return float64(n) / d.Seconds()
}

// wireBatch renders b's samples into buf as keyed wire samples.
func (p *plan) wireBatch(b batch, buf []wire.Sample) []wire.Sample {
	buf = buf[:0]
	for _, s := range b.samples {
		st := &p.streams[s.stream]
		buf = append(buf, wire.Sample{
			Stream: st.id, TS: int64(s.k) + 1, Value: st.value(s.k), Seq: uint64(s.k) + 1,
		})
	}
	return buf
}

// jsonBatch renders b as a keyed HTTP ingest body.
func (p *plan) jsonBatch(b batch) []byte {
	req := server.IngestRequest{Source: keySource, Samples: make([]server.IngestSample, len(b.samples))}
	for i, s := range b.samples {
		st := &p.streams[s.stream]
		req.Samples[i] = server.IngestSample{
			Stream: st.id, TS: int64(s.k) + 1, Value: st.value(s.k), Seq: uint64(s.k) + 1,
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // plain structs of finite floats always encode
	}
	return body
}

// closedWindow is the in-flight batch window of every closed-loop sender.
const closedWindow = 16

// runWire sends batches over one new binary connection to addr while a
// second goroutine collects their acks into t (and, when ackAt is set, the
// time each batch i was acked OK). send drives the sending: it calls
// sendOne(i, b) for each batch it sends. At most window batches are in
// flight.
func runWire(ctx context.Context, addr string, window int, p *plan, t *tally, ackAt []time.Time,
	send func(sendOne func(i int, b batch) error) error) error {
	conn, err := wire.Dial(ctx, addr, wire.ConnConfig{Window: window})
	if err != nil {
		return err
	}
	defer conn.Close()
	type inflight struct {
		pend *wire.Pending
		i    int
		b    batch
	}
	acks := make(chan inflight, window)
	waitErr := make(chan error, 1)
	go func() {
		var werr error
		for f := range acks {
			a, err := f.pend.Wait(ctx)
			at := time.Now()
			if err != nil && werr == nil {
				werr = err
			}
			ok := err == nil && a.Status == wire.StatusOK
			if ok && ackAt != nil {
				ackAt[f.i] = at
			}
			t.ack(f.b, ok, at)
		}
		waitErr <- werr
	}()
	var buf []wire.Sample
	serr := send(func(i int, b batch) error {
		buf = p.wireBatch(b, buf)
		pend, err := conn.Send(ctx, keySource, buf)
		if err != nil {
			return err
		}
		acks <- inflight{pend, i, b}
		return nil
	})
	close(acks)
	return errors.Join(serr, <-waitErr)
}

// warmUp sends the plan's warm-up over warmConns binary connections to
// addr, each stream on its fixed connection.
func warmUp(ctx context.Context, addr string, p *plan) (*tally, error) {
	total := newTally(p)
	var mu sync.Mutex
	var errs []error
	var wg sync.WaitGroup
	for c := range p.warm {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := newTally(p)
			err := runWire(ctx, addr, closedWindow, p, t, nil, func(sendOne func(int, batch) error) error {
				for i, b := range p.warm[c] {
					if err := sendOne(i, b); err != nil {
						return err
					}
				}
				return nil
			})
			mu.Lock()
			defer mu.Unlock()
			total.add(t)
			errs = append(errs, err)
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return total, fmt.Errorf("warm-up: %w", err)
	}
	if total.failed > 0 {
		return total, fmt.Errorf("warm-up: %d of %d batches not acked OK", total.failed, total.attempted)
	}
	return total, nil
}

// saturateBinary sends saturation batches closed loop over a new binary
// connection until the deadline.
func saturateBinary(ctx context.Context, addr string, p *plan, deadline time.Time) (*tally, error) {
	t := newTally(p)
	return t, runWire(ctx, addr, closedWindow, p, t, nil, func(sendOne func(int, batch) error) error {
		for i := 0; time.Now().Before(deadline); i++ {
			if err := sendOne(i, p.sat.batch()); err != nil {
				return err
			}
		}
		return nil
	})
}

// openLoop runs n operations on one goroutine, each at its due time after
// start; send blocks until operation i may be followed by the next. It
// returns the generator's own lateness per operation: how long after the
// operation could first go out (its due time, or the end of the previous
// operation if that was later) it actually went out. Waiting on a busy
// connection is the system's delay and is counted in latency, not here.
func openLoop(start time.Time, n int, due func(i int) time.Duration, send func(i int, due time.Time)) []time.Duration {
	late := make([]time.Duration, 0, n)
	prevEnd := start
	for i := 0; i < n; i++ {
		target := start.Add(due(i))
		now := time.Now()
		for d := target.Sub(now); d > 0; d = target.Sub(now) {
			// time.Sleep rounds short sleeps up to about a millisecond on
			// Linux; nanosleep wakes within tens of microseconds.
			ts := syscall.NsecToTimespec(int64(d))
			syscall.Nanosleep(&ts, nil)
			now = time.Now()
		}
		ready := target
		if prevEnd.After(ready) {
			ready = prevEnd
		}
		late = append(late, now.Sub(ready))
		send(i, target)
		prevEnd = time.Now()
	}
	return late
}

// phaseResult is what one open-loop ingest phase measured.
type phaseResult struct {
	t    *tally
	late []time.Duration
	// Per batch: due time (for freshness), send time and, for a batch
	// acked OK, ack time.
	batchDue, sentAt, ackAt []time.Time
}

func newPhaseResult(p *plan, n int) *phaseResult {
	return &phaseResult{
		t:        newTally(p),
		batchDue: make([]time.Time, n), sentAt: make([]time.Time, n), ackAt: make([]time.Time, n),
	}
}

// openBinary sends batches over one new binary connection, each at its due
// time less offset after start; acks are read as they arrive.
func openBinary(ctx context.Context, addr string, p *plan, batches []batch, offset time.Duration, start time.Time) (*phaseResult, error) {
	r := newPhaseResult(p, len(batches))
	err := runWire(ctx, addr, len(batches), p, r.t, r.ackAt, func(sendOne func(int, batch) error) error {
		var serr error
		r.late = openLoop(start, len(batches), func(i int) time.Duration { return batches[i].due - offset },
			func(i int, due time.Time) {
				r.batchDue[i] = due
				if serr == nil {
					r.sentAt[i] = time.Now()
					serr = sendOne(i, batches[i])
				}
			})
		return serr
	})
	return r, err
}

// postIngest sends one JSON ingest body and reports whether it was a 202.
func postIngest(ctx context.Context, hc *httpConn, body []byte) bool {
	resp, _, err := hc.do(ctx, http.MethodPost, "/v1/ingest", nil, body)
	return err == nil && resp.StatusCode == http.StatusAccepted
}

// openHTTP sends batches as JSON over one HTTP connection, each at its due
// time less offset after start; bodies are encoded before timing starts.
func openHTTP(ctx context.Context, hc *httpConn, p *plan, batches []batch, bodies [][]byte, offset time.Duration, start time.Time) *phaseResult {
	r := newPhaseResult(p, len(batches))
	r.late = openLoop(start, len(batches), func(i int) time.Duration { return batches[i].due - offset },
		func(i int, due time.Time) {
			r.batchDue[i] = due
			r.sentAt[i] = time.Now()
			ok := postIngest(ctx, hc, bodies[i])
			at := time.Now()
			if ok {
				r.ackAt[i] = at
			}
			r.t.ack(batches[i], ok, at)
		})
	return r
}

// saturateHTTP posts saturation batches closed loop over one HTTP
// connection until the deadline, encoding each as it goes.
func saturateHTTP(ctx context.Context, hc *httpConn, p *plan, deadline time.Time) *tally {
	t := newTally(p)
	for time.Now().Before(deadline) {
		b := p.sat.batch()
		ok := postIngest(ctx, hc, p.jsonBatch(b))
		t.ack(b, ok, time.Now())
	}
	return t
}

// readResult is what the open-loop read connection measured.
type readResult struct {
	attempted, failed int
	lat               []float64 // ms, of the reads answered 200 or 304
	late              []time.Duration
	bulk, bulk304     int
}

// openReads runs reads over one HTTP connection, each at its due time less
// offset after start. Bulk reads send the last ETag seen for their set. A
// read's latency ends when its body has arrived; checking the body comes
// after.
func openReads(ctx context.Context, hc *httpConn, p *plan, ops []readOp, offset time.Duration, start time.Time) *readResult {
	r := &readResult{}
	etags := make([]string, len(p.bulkSets))
	sets := make([]string, len(p.bulkSets))
	for i, set := range p.bulkSets {
		ids := make([]string, len(set))
		for j, s := range set {
			ids[j] = p.streams[s].id
		}
		sets[i] = url.QueryEscape(strings.Join(ids, ","))
	}
	r.late = openLoop(start, len(ops), func(i int) time.Duration { return ops[i].due - offset },
		func(i int, due time.Time) {
			op := ops[i]
			var target string
			var header http.Header
			var doc any
			switch op.kind {
			case readForecast:
				target, doc = "/v1/forecast/"+p.streams[op.target].id, &server.ForecastResponse{}
			case readBulk:
				target, doc = "/v1/forecasts?streams="+sets[op.target], &server.BulkForecastsResponse{}
				if etags[op.target] != "" {
					header = http.Header{"If-None-Match": {etags[op.target]}}
				}
			case readHistory:
				target, doc = "/v1/forecast/"+p.streams[op.target].id+"/history?step=16", &server.HistoryResponse{}
			}
			r.attempted++
			resp, body, err := hc.do(ctx, http.MethodGet, target, header, nil)
			lat := msOf(time.Since(due))
			switch {
			case err != nil:
				r.failed++
				return
			case op.kind == readBulk && resp.StatusCode == http.StatusNotModified:
				r.bulk++
				r.bulk304++
			case resp.StatusCode != http.StatusOK || json.Unmarshal(body, doc) != nil:
				r.failed++
				return
			case op.kind == readBulk:
				r.bulk++
				etags[op.target] = resp.Header.Get("ETag")
			}
			r.lat = append(r.lat, lat)
		})
	return r
}

// sseEvent is one received probe forecast event.
type sseEvent struct {
	at  time.Time
	ev  server.FeedEvent
	err error
}

// subscription is a live SSE subscription to the probe streams.
type subscription struct {
	cancel context.CancelFunc
	done   chan struct{}
	mu     sync.Mutex
	events []sseEvent
	err    error
}

// subscribeProbes opens the SSE feed for every probe, resuming each after
// the seq it has already reached, and returns once the daemon has
// registered the subscriber (its response headers arrived). The events are
// read, and timed, on the goroutine reading the response body.
func subscribeProbes(ctx context.Context, c *http.Client, addr string, p *plan, seqs []int32) (*subscription, error) {
	ids := make([]string, numProbes)
	pos := make([]string, numProbes)
	for i := range ids {
		s := p.probe(i)
		ids[i] = p.streams[s].id
		pos[i] = fmt.Sprintf("%s@%d", ids[i], seqs[s])
	}
	q := url.Values{"streams": {strings.Join(ids, ",")}, "last_event_id": {strings.Join(pos, ",")}}
	sctx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(sctx, http.MethodGet, "http://"+addr+"/v1/subscribe?"+q.Encode(), nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("subscribe: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscribe: status %d", resp.StatusCode)
	}
	sub := &subscription{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(sub.done)
		defer resp.Body.Close()
		br := bufio.NewReaderSize(resp.Body, 64<<10)
		for {
			line, err := br.ReadSlice('\n')
			if err != nil {
				if sctx.Err() == nil {
					sub.mu.Lock()
					sub.err = err
					sub.mu.Unlock()
				}
				return
			}
			data, ok := bytes.CutPrefix(line, []byte("data: "))
			if !ok {
				continue
			}
			e := sseEvent{at: time.Now()}
			e.err = json.Unmarshal(data, &e.ev)
			sub.mu.Lock()
			sub.events = append(sub.events, e)
			sub.mu.Unlock()
		}
	}()
	return sub, nil
}

// count returns how many events have arrived so far.
func (s *subscription) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.events)
}

// close ends the subscription and returns everything it received.
func (s *subscription) close() ([]sseEvent, error) {
	s.cancel()
	<-s.done
	return s.events, s.err
}
