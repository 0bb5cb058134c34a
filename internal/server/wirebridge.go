package server

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/acis-lab/larpredictor/internal/engine"
	"github.com/acis-lab/larpredictor/internal/wire"
)

// The binary-transport bridge: wire.Server decodes frames, this adapter
// runs them through the same transport-independent pipeline as the HTTP
// handler (IngestKeyed) and maps the outcome onto an ack status exactly the
// way the handler maps it onto an HTTP status:
//
//	nil error            -> StatusOK       (202)
//	ErrDraining/ErrClosed -> StatusDraining (503 + drain)
//	engine.ErrBacklog    -> StatusBacklog  (429)
//	anything else        -> StatusRetry    (5xx; keys make resends safe)
//
// The conversion buffers are pooled because the wire server calls this from
// one goroutine per connection and the default (non-WAL) path must stay
// allocation-free end to end.

// keyedPool recycles the wire→KeyedSample conversion buffers.
var keyedPool = sync.Pool{
	New: func() any { b := make([]KeyedSample, 0, 256); return &b },
}

// BinaryIngest adapts one decoded wire batch onto the shared ingest path.
// Wire it as the wire.ServerConfig.Ingest callback.
func (s *Server) BinaryIngest(source string, samples []wire.Sample) wire.Ack {
	if len(source) > MaxSourceLen {
		return wire.Ack{Status: wire.StatusInvalid, Msg: fmt.Sprintf("source exceeds %d bytes", MaxSourceLen)}
	}
	bp := keyedPool.Get().(*[]KeyedSample)
	batch := *bp
	if cap(batch) < len(samples) {
		batch = make([]KeyedSample, len(samples))
	}
	batch = batch[:len(samples)]
	for i := range samples {
		smp := &samples[i]
		if smp.Stream == "" {
			*bp = batch[:0]
			keyedPool.Put(bp)
			return wire.Ack{Status: wire.StatusInvalid, Msg: "empty stream"}
		}
		batch[i] = KeyedSample{
			Sample: engine.Sample{ID: smp.Stream, TS: smp.TS, Value: smp.Value},
			Source: source, Seq: smp.Seq,
		}
	}
	out := s.IngestKeyed(context.Background(), "", batch)
	// Drop the string references before pooling so retired stream IDs are
	// not pinned by idle buffers.
	clear(batch)
	*bp = batch[:0]
	keyedPool.Put(bp)

	ack := wire.Ack{
		Accepted: out.Accepted + out.FwdAccepted,
		Deduped:  out.Deduped + out.FwdDeduped,
	}
	switch {
	case out.Err == nil:
		ack.Status = wire.StatusOK
	case errors.Is(out.Err, ErrDraining), errors.Is(out.Err, engine.ErrClosed):
		ack.Status = wire.StatusDraining
		ack.Msg = "draining"
	case errors.Is(out.Err, engine.ErrBacklog):
		ack.Status = wire.StatusBacklog
		ack.Msg = "ingest backlog"
	default:
		// Forward failures and internal errors: retryable, the keys dedup
		// whatever portion landed.
		ack.Status = wire.StatusRetry
		ack.Msg = out.Err.Error()
	}
	return ack
}
