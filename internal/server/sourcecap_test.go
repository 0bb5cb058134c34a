package server

import (
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/acis-lab/larpredictor/internal/engine"
	"github.com/acis-lab/larpredictor/internal/wire"
)

// sourceCapServer returns a server whose durable-ingest hook only counts
// the samples that reach it, standing in for predictd's dedup and WAL.
func sourceCapServer(t *testing.T) (*testServer, *atomic.Int64) {
	t.Helper()
	var reached atomic.Int64
	env := newTestServer(t, engine.Config{Shards: 1}, Config{
		Ingest: func(batch []KeyedSample) (int, int, error) {
			reached.Add(int64(len(batch)))
			return len(batch), 0, nil
		},
	})
	return env, &reached
}

// TestIngestSourceCapHTTP: a source of MaxSourceLen bytes is accepted; one
// byte more is a 400 bad_request before the batch reaches dedup or the WAL.
func TestIngestSourceCapHTTP(t *testing.T) {
	env, reached := sourceCapServer(t)
	req := IngestRequest{Source: strings.Repeat("s", MaxSourceLen+1), Samples: []IngestSample{{Stream: "a", Value: 1, Seq: 1}}}
	resp, body := postJSON(t, env.ts.URL+"/v1/ingest", req)
	if resp.StatusCode != http.StatusBadRequest || errorCode(t, body) != CodeBadRequest {
		t.Fatalf("over-cap source: %d %s, want 400 %s", resp.StatusCode, body, CodeBadRequest)
	}
	if n := reached.Load(); n != 0 {
		t.Fatalf("over-cap batch reached the ingest hook with %d samples", n)
	}
	req.Source = req.Source[:MaxSourceLen]
	if resp, body := postJSON(t, env.ts.URL+"/v1/ingest", req); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("source at the cap: %d %s, want 202", resp.StatusCode, body)
	}
	if n := reached.Load(); n != 1 {
		t.Fatalf("ingest hook saw %d samples, want 1", n)
	}
}

// TestIngestSourceCapBinary: the binary transport refuses the same source
// with StatusInvalid, also before dedup and the WAL.
func TestIngestSourceCapBinary(t *testing.T) {
	env, reached := sourceCapServer(t)
	samples := []wire.Sample{{Stream: "a", Value: 1, Seq: 1}}
	long := strings.Repeat("s", MaxSourceLen+1)
	if ack := env.srv.BinaryIngest(long, samples); ack.Status != wire.StatusInvalid || ack.Accepted != 0 {
		t.Fatalf("over-cap source: ack %+v, want StatusInvalid", ack)
	}
	if n := reached.Load(); n != 0 {
		t.Fatalf("over-cap batch reached the ingest hook with %d samples", n)
	}
	if ack := env.srv.BinaryIngest(long[:MaxSourceLen], samples); ack.Status != wire.StatusOK || ack.Accepted != 1 {
		t.Fatalf("source at the cap: ack %+v, want StatusOK with 1 accepted", ack)
	}
	if n := reached.Load(); n != 1 {
		t.Fatalf("ingest hook saw %d samples, want 1", n)
	}
}
