package server

import (
	"bytes"
	"context"
	"net/http"
	"sync"
)

// withTimeout bounds each /v1 request. It replaces http.TimeoutHandler so
// a timed-out request answers the JSON error envelope with code "timeout"
// and a Retry-After the client's retry policy keys on (hedge-worthy — the
// work may still complete server-side), distinct from the "draining" and
// "shed" 503s.
//
// The inner handler runs in its own goroutine against a buffering response
// writer; whichever side finishes first owns the real ResponseWriter. An
// abandoned handler keeps running to completion (its writes land in the
// discarded buffer) — same contract as the stdlib TimeoutHandler.
func (s *Server) withTimeout(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)

		bw := &bufferedResponse{h: make(http.Header)}
		done := make(chan struct{})
		panicked := make(chan any, 1)
		go func() {
			defer func() {
				if p := recover(); p != nil {
					panicked <- p
				}
			}()
			next.ServeHTTP(bw, r)
			bw.complete()
			close(done)
		}()

		select {
		case p := <-panicked:
			panic(p)
		case <-done:
			bw.flushTo(w)
		case <-ctx.Done():
			if bw.abandon() {
				// The handler had already produced its response between the
				// deadline firing and the abandon; serve it rather than lying
				// with a 503.
				bw.flushTo(w)
				return
			}
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, CodeTimeout, "request timed out")
		}
	})
}

// bufferedResponse buffers an inner handler's response so the timeout
// middleware can atomically decide whether it or the 503 wins.
type bufferedResponse struct {
	mu        sync.Mutex
	h         http.Header
	code      int
	buf       bytes.Buffer
	abandoned bool
	finished  bool
}

func (b *bufferedResponse) Header() http.Header { return b.h }

func (b *bufferedResponse) WriteHeader(code int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.code == 0 {
		b.code = code
	}
}

func (b *bufferedResponse) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.code == 0 {
		b.code = http.StatusOK
	}
	if b.abandoned {
		return len(p), nil // discard; the 503 already went out
	}
	return b.buf.Write(p)
}

// complete records that the inner handler returned with its full response
// buffered.
func (b *bufferedResponse) complete() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.finished = true
}

// abandon marks the response as timed out. It reports true when the handler
// had already completed its response, in which case the caller should serve
// the buffered response instead of the 503.
func (b *bufferedResponse) abandon() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.finished {
		return true
	}
	b.abandoned = true
	return false
}

// flushTo copies the buffered response onto the real writer.
func (b *bufferedResponse) flushTo(w http.ResponseWriter) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for k, vs := range b.h {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	code := b.code
	if code == 0 {
		code = http.StatusOK
	}
	w.WriteHeader(code)
	_, _ = w.Write(b.buf.Bytes())
}
