package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"testing"
)

// BenchmarkClusterForward measures the ingest ack latency cost of the
// forward hop: "local" writes a stream owned by the receiving node,
// "forwarded" writes one owned by its peer, so the ack waits on the extra
// intra-cluster round trip. The gap between the two is the price of
// writing to the wrong node — the number the X-Predictd-Route hint exists
// to amortize away.
func BenchmarkClusterForward(b *testing.B) {
	nodes := startTestCluster(b, 2, 1, false)
	ids := memberIDs(nodes)
	local := streamOwnedBy(b, ids, "n0")
	remote := streamOwnedBy(b, ids, "n1")

	post := func(b *testing.B, stream string, seq uint64) {
		body := fmt.Sprintf(
			`{"source":"bench","samples":[{"stream":%q,"value":1.5,"seq":%d}]}`,
			stream, seq)
		resp, err := http.Post("http://"+nodes[0].addr+"/v1/ingest",
			"application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			b.Fatalf("HTTP %d", resp.StatusCode)
		}
	}

	b.Run("local", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			post(b, local, uint64(i+1))
		}
	})
	b.Run("forwarded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			post(b, remote, uint64(i+1))
		}
	})
}
