package client

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/acis-lab/larpredictor/internal/wire"
)

// ErrIngesterClosed is returned by Add and Flush after Close.
var ErrIngesterClosed = errors.New("predictclient: ingester closed")

const (
	// ingestQueueDepth is the Add buffer; Add blocks (honoring its ctx)
	// when the worker falls behind.
	ingestQueueDepth = 1024
	// ingestWindow caps unacknowledged frames pipelined on one binary
	// connection — the window internal/cluster forwards with.
	ingestWindow = 8
	// reprobeInterval is how long the ingester stays on the HTTP fallback
	// after the binary transport fails before dialing it again.
	reprobeInterval = 5 * time.Second
)

// IngesterConfig shapes an Ingester; every zero field has a default.
type IngesterConfig struct {
	// BinaryAddr, when set, is the daemon's binary ingest listener
	// (-binary-listen): batches are pipelined over the framed wire protocol
	// and fall back to HTTP when it fails. Empty keeps every batch on
	// HTTP/JSON and never dials.
	BinaryAddr string
	// MaxBatch is the largest batch one request or frame carries
	// (default 64).
	MaxBatch int
	// FlushInterval bounds how long a sample waits for batch-mates
	// (default 100ms).
	FlushInterval time.Duration
	// OnAck, when set, observes every acknowledged batch (both transports).
	OnAck func(resp *IngestResponse, batch []Sample)
	// OnError, when set, observes a batch the ingester gave up on — the
	// samples (keys included) are handed back so the caller can re-submit
	// them without minting new keys.
	OnError func(err error, batch []Sample)
	// OnFallback, when set, observes each binary→HTTP transition with the
	// error that caused it.
	OnFallback func(err error)
}

// Ingester batches samples and ships them asynchronously. Each Add assigns
// the sample the next seq from one monotonic counter, so every sample of
// this client carries a distinct (source, seq) idempotency key that stays
// fixed however many times its batch is resent — the server applies it
// exactly once.
//
// Without BinaryAddr every batch goes through the client's HTTP retry loop.
// With it, batches are pipelined over the framed binary ingest protocol, up
// to ingestWindow frames per connection. When the binary transport fails —
// dial refused, connection reset, version rejection, persistent
// backpressure — the ingester falls back to the HTTP retry loop and resends
// the very same batches: the server dedups whatever portion already landed.
// The binary listener is re-probed every reprobeInterval while on fallback.
//
// Breaker discipline: the shared circuit breaker exists to shed calls while
// the daemon is down, and the binary transport reports into it accordingly.
// Any ack — including Backlog and Draining backpressure — proves the daemon
// alive and counts as breaker success, exactly like HTTP 429/503. A
// connection reset or EOF on an established binary connection is also
// treated like a 503 (backpressure, not death): it never trips the breaker,
// because the HTTP listener may be healthy and the fallback path must not
// start life shed. Only the HTTP path's own transport failures count
// against the breaker.
type Ingester struct {
	c   *Client
	cfg IngesterConfig

	mu     sync.Mutex
	seq    uint64
	closed bool

	in      chan Sample
	flushes chan chan error
	quit    chan struct{}
	done    chan struct{}
	ctx     context.Context
	cancel  context.CancelFunc

	// Worker-owned state (the run goroutine is the only toucher).
	batch    []Sample // samples waiting for batch-mates
	err      error    // first batch failure since the current drain began
	conn     *wire.Conn
	inflight []inflight
	probeAt  time.Time // while before this instant, ship over HTTP without dialing
	wbuf     []wire.Sample
}

// inflight pairs a pipelined frame's ack handle with the batch it carried,
// so an unacked or backpressured batch can be resent verbatim.
type inflight struct {
	p     *wire.Pending
	batch []Sample
}

// NewIngester starts the background flusher. Callers must Close it to
// flush the tail.
func (c *Client) NewIngester(cfg IngesterConfig) *Ingester {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = 100 * time.Millisecond
	}
	ctx, cancel := context.WithCancel(context.Background())
	ing := &Ingester{
		c:       c,
		cfg:     cfg,
		in:      make(chan Sample, ingestQueueDepth),
		flushes: make(chan chan error),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
		ctx:     ctx,
		cancel:  cancel,
	}
	go ing.run()
	return ing
}

// Add enqueues one observation, assigning its idempotency seq. It blocks
// when the queue is full until the worker catches up or ctx cancels.
func (ing *Ingester) Add(ctx context.Context, s Sample) error {
	ing.mu.Lock()
	if ing.closed {
		ing.mu.Unlock()
		return ErrIngesterClosed
	}
	ing.seq++
	s.Seq = ing.seq
	ing.mu.Unlock()
	select {
	case ing.in <- s:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-ing.done:
		return ErrIngesterClosed
	}
}

// Flush ships everything queued so far, waits for every in-flight frame to
// settle, and returns the first batch failure of that flush — an HTTP
// error the retry loop gave up on or a binary rejection.
func (ing *Ingester) Flush(ctx context.Context) error {
	res := make(chan error, 1)
	select {
	case ing.flushes <- res:
	case <-ctx.Done():
		return ctx.Err()
	case <-ing.done:
		return ErrIngesterClosed
	}
	select {
	case err := <-res:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close flushes the remaining queue, settles all in-flight frames, and
// stops the worker. After Close, Add and Flush fail with ErrIngesterClosed.
func (ing *Ingester) Close() error {
	ing.mu.Lock()
	if ing.closed {
		ing.mu.Unlock()
		<-ing.done
		return nil
	}
	ing.closed = true
	ing.mu.Unlock()
	close(ing.quit)
	<-ing.done
	ing.cancel()
	return nil
}

func (ing *Ingester) run() {
	defer func() {
		if ing.conn != nil {
			ing.conn.Close()
		}
		close(ing.done)
	}()
	ticker := time.NewTicker(ing.cfg.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ing.quit:
			ing.drain()
			return
		case s := <-ing.in:
			ing.add(s)
		case <-ticker.C:
			// Settle what is in flight too, so a pipelined batch's outcome
			// is reported within an interval, not at the next full window.
			ing.send()
			ing.recoverAll(ing.takeUnsettled())
		case res := <-ing.flushes:
			res <- ing.drain()
		}
	}
}

// add appends s to the open batch and ships the batch once it is full.
func (ing *Ingester) add(s Sample) {
	if ing.batch = append(ing.batch, s); len(ing.batch) >= ing.cfg.MaxBatch {
		ing.send()
	}
}

// send ships the open batch, if any. The shipped slice may sit in the
// in-flight FIFO, so the next batch starts a fresh one.
func (ing *Ingester) send() {
	if len(ing.batch) > 0 {
		ing.ship(ing.batch)
		ing.batch = nil
	}
}

// drain ships the open batch plus everything already queued, in MaxBatch
// chunks, then settles every pipelined frame — so a Flush is a true barrier
// over its prior Adds. It returns the first batch failure seen meanwhile.
func (ing *Ingester) drain() error {
	ing.err = nil
	for {
		select {
		case s := <-ing.in:
			ing.add(s)
		default:
			ing.send()
			ing.recoverAll(ing.takeUnsettled())
			return ing.err
		}
	}
}

// ship sends one batch, pipelining over the binary transport when it is
// configured and up and going through HTTP otherwise. A pipelined batch's
// outcome surfaces at the next settle point: a full window, a FlushInterval
// tick, Flush or Close.
func (ing *Ingester) ship(batch []Sample) {
	if ing.cfg.BinaryAddr == "" {
		ing.shipHTTP(batch)
		return
	}
	if ing.conn == nil {
		if time.Now().Before(ing.probeAt) {
			ing.shipHTTP(batch)
			return
		}
		if err := ing.dial(); err != nil {
			// The binary listener refused or failed the handshake; the HTTP
			// listener may be fine — its own attempt drives the breaker.
			ing.fallback(err)
			ing.shipHTTP(batch)
			return
		}
	}
	// Bound our FIFO to the window by settling the oldest frame first; the
	// wire window has a free slot whenever our FIFO does, so Send below
	// cannot block indefinitely.
	for len(ing.inflight) >= ingestWindow {
		ing.reapHead()
		if ing.conn == nil {
			// reapHead recovered over HTTP; this batch follows it there.
			ing.shipHTTP(batch)
			return
		}
	}
	p, err := ing.conn.Send(ing.ctx, ing.c.cfg.Source, ing.wireBatch(batch))
	if err != nil {
		// Reset/EOF on an established connection: treated like a 503 — the
		// daemon may just be cycling the listener — so no breaker trip; the
		// unacked frames and this batch are resent in order.
		ing.recoverAll(append(ing.takeUnsettled(), batch))
		return
	}
	ing.inflight = append(ing.inflight, inflight{p: p, batch: batch})
}

// reapHead settles the oldest in-flight frame. A retryable ack or a dead
// connection forces full in-order recovery of everything behind it.
func (ing *Ingester) reapHead() {
	head := ing.inflight[0]
	n := copy(ing.inflight, ing.inflight[1:])
	ing.inflight[n] = inflight{}
	ing.inflight = ing.inflight[:n]
	if ack, err := head.p.Wait(ing.ctx); err != nil || !ing.settleAck(ack, head.batch) {
		ing.recoverAll(append([][]Sample{head.batch}, ing.takeUnsettled()...))
	}
}

// takeUnsettled waits for every in-flight ack and returns, in send order,
// the batches that still need resending (unacked or backpressured).
func (ing *Ingester) takeUnsettled() [][]Sample {
	var resend [][]Sample
	for _, e := range ing.inflight {
		ack, err := e.p.Wait(ing.ctx)
		if err != nil || !ing.settleAck(ack, e.batch) {
			resend = append(resend, e.batch)
		}
	}
	ing.inflight = ing.inflight[:0]
	return resend
}

// settleAck consumes one ack, reporting whether the batch is finished.
// Backpressure statuses return false: the batch must be resent, and — the
// breaker contract — they count as success, never as a failure.
func (ing *Ingester) settleAck(ack wire.Ack, batch []Sample) bool {
	ing.c.breakerSuccess() // any ack is a definitive server response
	switch ack.Status {
	case wire.StatusOK:
		ing.acked(&IngestResponse{Accepted: ack.Accepted, Deduped: ack.Deduped}, batch)
		return true
	case wire.StatusInvalid:
		ing.failed(fmt.Errorf("predictclient: binary ingest rejected: %s", ack.Msg), batch)
		return true
	default: // Backlog, Draining, Retry: resend
		return false
	}
}

// recoverAll resends batches in order: one synchronous binary round (over
// the surviving connection, or one redial), then the HTTP fallback — whose
// retry loop owns backoff, Retry-After, and the breaker — for the rest.
func (ing *Ingester) recoverAll(batches [][]Sample) {
	if len(batches) == 0 {
		return
	}
	if ing.conn != nil {
		select {
		case <-ing.conn.Dead():
			ing.conn.Close()
			ing.conn = nil
		default:
		}
	}
	if ing.conn == nil {
		if err := ing.dial(); err != nil {
			ing.fallback(err)
		}
	}
	for ing.conn != nil && len(batches) > 0 {
		ack, err := ing.conn.Ingest(ing.ctx, ing.c.cfg.Source, ing.wireBatch(batches[0]))
		if err != nil {
			// Second connection loss in one recovery: stop probing and let
			// HTTP carry the rest. Still no breaker trip — see type doc.
			ing.conn.Close()
			ing.conn = nil
			ing.fallback(err)
			break
		}
		if !ing.settleAck(ack, batches[0]) {
			// Persistent backpressure: the HTTP retry loop has the backoff
			// discipline (jitter, Retry-After floors) to wait it out.
			ing.fallback(fmt.Errorf("predictclient: binary ingest backpressure: %s", ack.Status))
			break
		}
		batches = batches[1:]
	}
	for _, b := range batches {
		ing.shipHTTP(b)
	}
}

// shipHTTP sends one batch through the client's HTTP retry loop with the
// keys it already carries.
func (ing *Ingester) shipHTTP(batch []Sample) {
	resp, err := ing.c.Ingest(ing.ctx, batch)
	if err != nil {
		ing.failed(err, batch)
		return
	}
	ing.acked(resp, batch)
}

func (ing *Ingester) acked(resp *IngestResponse, batch []Sample) {
	if ing.cfg.OnAck != nil {
		ing.cfg.OnAck(resp, batch)
	}
}

// failed hands a batch the ingester gave up on to OnError and keeps the
// first such error for the running drain to report.
func (ing *Ingester) failed(err error, batch []Sample) {
	if ing.err == nil {
		ing.err = err
	}
	if ing.cfg.OnError != nil {
		ing.cfg.OnError(err, batch)
	}
}

// wireBatch converts a batch into the wire sample form in a reused buffer —
// safe because the wire encoder copies the samples out before Send returns.
func (ing *Ingester) wireBatch(batch []Sample) []wire.Sample {
	if cap(ing.wbuf) < len(batch) {
		ing.wbuf = make([]wire.Sample, len(batch))
	}
	ws := ing.wbuf[:len(batch)]
	for i, s := range batch {
		ws[i] = wire.Sample{Stream: s.Stream, TS: s.TS, Value: s.Value, Seq: s.Seq}
	}
	return ws
}

// dial opens and handshakes a fresh wire connection, bounded by the
// client's per-attempt RequestTimeout.
func (ing *Ingester) dial() error {
	conn, err := wire.Dial(ing.ctx, ing.cfg.BinaryAddr, wire.ConnConfig{
		DialTimeout: ing.c.cfg.RequestTimeout,
		Window:      ingestWindow,
	})
	if err != nil {
		return err
	}
	ing.conn = conn
	return nil
}

// fallback records a binary→HTTP transition and schedules the next probe.
func (ing *Ingester) fallback(cause error) {
	ing.probeAt = time.Now().Add(reprobeInterval)
	if ing.cfg.OnFallback != nil {
		ing.cfg.OnFallback(cause)
	}
}
