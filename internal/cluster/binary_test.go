package cluster

import (
	"net/http"
	"testing"
	"time"
)

// TestClusterForwardPrefersBinary: once heartbeats have advertised the
// owner's wire listener, owner-forwards go over the binary transport — and
// when that listener dies, forwarding falls back to HTTP without losing a
// batch.
func TestClusterForwardPrefersBinary(t *testing.T) {
	nodes := startTestCluster(t, 3, 2, true)
	ids := memberIDs(nodes)
	byID := map[string]*testNode{}
	for _, tn := range nodes {
		byID[tn.id] = tn
	}

	// Heartbeats must deliver n1's binary advertisement to n0 first;
	// before that, forwards would use HTTP (also correct, but not what
	// this test is pinning down).
	waitFor(t, 3*time.Second, "binary address advertisement", func() bool {
		return byID["n0"].node.binaryAddrOf("n1") != ""
	})

	stream := streamOwnedBy(t, ids, "n1", "n2")
	const total = 30
	for i := 0; i < total; i += 10 {
		vals := make([]float64, 10)
		for j := range vals {
			vals[j] = float64(i + j)
		}
		resp := ingestKeyed(t, nodes[0].addr, "src-B", stream, uint64(i+1), vals)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest batch at %d: HTTP %d", i, resp.StatusCode)
		}
	}
	if got, _ := byID["n1"].dedup.Applied(stream); got != total {
		t.Fatalf("owner applied %d, want %d", got, total)
	}
	binSent := byID["n0"].node.binaryForwards.WithLabels("n1").Value()
	if binSent != total {
		t.Fatalf("binary forwards to n1 = %d samples, want %d (forwards must prefer the wire transport)", binSent, total)
	}

	// Duplicate of an acked batch still dedups through the binary path.
	ingestKeyed(t, nodes[0].addr, "src-B", stream, 1, []float64{0})
	if got, _ := byID["n1"].dedup.Applied(stream); got != total {
		t.Fatalf("after duplicate retry owner applied %d, want %d", got, total)
	}
	binSent = byID["n0"].node.binaryForwards.WithLabels("n1").Value()

	// Kill the owner's wire listener (HTTP stays up): the advertised
	// address now refuses, and forwarding must fall back to HTTP/JSON.
	byID["n1"].wsrv.Close()
	resp := ingestKeyed(t, nodes[0].addr, "src-B", stream, total+1, []float64{1, 2, 3})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest after binary listener death: HTTP %d", resp.StatusCode)
	}
	if got, _ := byID["n1"].dedup.Applied(stream); got != total+3 {
		t.Fatalf("owner applied %d after fallback, want %d", got, total+3)
	}
	if after := byID["n0"].node.binaryForwards.WithLabels("n1").Value(); after != binSent {
		t.Fatalf("binary forward counter moved %d -> %d with the listener down; fallback must use HTTP", binSent, after)
	}
}
