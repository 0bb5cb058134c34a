package server

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/acis-lab/larpredictor/internal/engine"
)

// The transport-independent half of the ingest path. The HTTP handler and
// predictd's binary wire listener both decode their own framing into
// []KeyedSample and then run the identical pipeline here — draining check,
// cluster route/forward, durable (or direct-engine) apply, replication, and
// metric accounting — so the two transports cannot drift in durability or
// exactly-once semantics.

// ErrDraining reports that the server is refusing ingest because it is
// shutting down (or its engine is closed). The HTTP path maps it to 503 +
// CodeDraining; the binary path to StatusDraining. Retryable elsewhere.
var ErrDraining = errors.New("server: draining")

// ErrForwardFailed reports that a cluster owner-forward failed mid-batch.
// The outcome carries what the owners that did respond accepted; the client
// retries the whole batch and its keys dedup the part that landed. The HTTP
// path maps it to 503 + CodeForwardFailed.
var ErrForwardFailed = errors.New("forward to stream owner failed")

// IngestOutcome is the result of pushing one keyed batch through the shared
// ingest path. Accepted/Deduped count the locally applied portion;
// FwdAccepted/FwdDeduped what stream owners acked; Rejected what was neither
// applied nor deduped (backpressure or error). RouteHint, when set, is the
// address of the peer that owns every stream in the batch — transports relay
// it so the client's next batch can go straight to the owner.
type IngestOutcome struct {
	Accepted    int
	Deduped     int
	FwdAccepted int
	FwdDeduped  int
	Rejected    int
	RouteHint   string
	Err         error
}

// plainPool recycles the []engine.Sample conversion buffers used by the
// direct-engine ingest path, keeping the steady state allocation-free (the
// engine copies samples into its shard rings before IngestBatch returns).
var plainPool = sync.Pool{
	New: func() any { b := make([]engine.Sample, 0, 256); return &b },
}

// IngestKeyed runs one decoded batch through the full ingest pipeline. via
// is the ClusterHeader value the batch arrived with ("" for an external
// client batch, ClusterForward/ClusterReplicate for peer traffic). The
// batch slice is not retained.
func (s *Server) IngestKeyed(ctx context.Context, via string, batch []KeyedSample) IngestOutcome {
	var out IngestOutcome
	if s.draining.Load() {
		out.Err = ErrDraining
		out.Rejected = len(batch)
		return out
	}

	// Cluster routing: externally received batches (no ClusterHeader) split
	// into a local portion and per-owner forwards; forwarded and replicated
	// batches from peers are applied locally as-is, which keeps forwarding
	// to one hop. Forwards run before the local apply so a routing failure
	// turns into one clean retry — the client's idempotency keys make the
	// whole-batch retry safe.
	if cl := s.cfg.Cluster; cl != nil && via == "" {
		local, forward := cl.Route(batch)
		if len(local) == 0 && len(forward) == 1 {
			// The whole batch belongs to one peer: hint the client to send
			// the next one straight there.
			for peer := range forward {
				if addr := cl.PeerAddr(peer); addr != "" {
					out.RouteHint = addr
				}
			}
		}
		for peer, sub := range forward {
			fa, fd, ferr := cl.Forward(ctx, peer, sub)
			out.FwdAccepted += fa
			out.FwdDeduped += fd
			if ferr != nil {
				out.Rejected = len(batch) - out.FwdAccepted - out.FwdDeduped
				out.Err = fmt.Errorf("%w: %v", ErrForwardFailed, ferr)
				return out
			}
		}
		batch = local
	}
	if len(batch) == 0 {
		// Everything was forwarded and acked by its owner.
		return out
	}

	var err error
	if s.cfg.Ingest != nil {
		out.Accepted, out.Deduped, err = s.cfg.Ingest(batch)
	} else {
		bp := plainPool.Get().(*[]engine.Sample)
		plain := *bp
		if cap(plain) < len(batch) {
			plain = make([]engine.Sample, len(batch))
		}
		plain = plain[:len(batch)]
		for i := range batch {
			plain[i] = batch[i].Sample
		}
		out.Accepted, err = s.eng.IngestBatch(plain)
		// Drop the string references before pooling so a retired stream ID
		// is not pinned by an idle buffer.
		clear(plain)
		*bp = plain[:0]
		plainPool.Put(bp)
	}
	out.Rejected = len(batch) - out.Accepted - out.Deduped
	s.met.accepted.Add(uint64(out.Accepted))
	s.met.rejected.Add(uint64(out.Rejected))
	if cl := s.cfg.Cluster; cl != nil && err == nil && via != ClusterReplicate {
		// The batch is acked by the caller; queue it for the streams'
		// followers. Replicated samples keep their original (source, seq)
		// keys, so a follower that already saw one (through an earlier
		// forward, or a client retry that landed elsewhere) dedups it.
		cl.Replicate(batch)
	}
	out.Err = err
	return out
}
