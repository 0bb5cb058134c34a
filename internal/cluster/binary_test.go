package cluster

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"github.com/acis-lab/larpredictor/internal/engine"
	"github.com/acis-lab/larpredictor/internal/obs"
	"github.com/acis-lab/larpredictor/internal/server"
	"github.com/acis-lab/larpredictor/internal/wire"
)

// startBinaryTestCluster is startTestCluster with a binary ingest listener
// per node: each member advertises its wire address via Config.BinaryAddr,
// so heartbeats teach peers to prefer the binary forward transport.
func startBinaryTestCluster(t testing.TB, n, replication int) ([]*testNode, map[string]*wire.Server) {
	t.Helper()
	lns := make([]net.Listener, n)
	blns := make([]net.Listener, n)
	members := make([]Member, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		bln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], blns[i] = ln, bln
		members[i] = Member{ID: fmt.Sprintf("n%d", i), Addr: ln.Addr().String()}
	}
	nodes := make([]*testNode, n)
	wsrvs := map[string]*wire.Server{}
	for i := range nodes {
		tn := &testNode{id: members[i].ID, addr: members[i].Addr}
		cache, hist := server.NewResultCache(), newTestHistory(t)
		dedup := server.NewDedup()
		eng, err := engine.New(engine.Config{
			Shards:    1,
			NewStream: quickOnline(t),
			OnResult:  func(r engine.Result) { cache.Record(r); hist.Record(r) },
		})
		if err != nil {
			t.Fatal(err)
		}
		node, err := New(Config{
			Self:           tn.id,
			BinaryAddr:     blns[i].Addr().String(),
			Members:        members,
			Replication:    replication,
			HeartbeatEvery: 25 * time.Millisecond,
			SuspectAfter:   2,
			DownAfter:      100 * time.Millisecond,
			Engine:         eng,
			Cache:          cache,
			Dedup:          dedup,
			History:        hist,
			Registry:       obs.NewRegistry(),
			Logw:           io.Discard,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Config{
			Engine:         eng,
			Cache:          cache,
			History:        hist,
			Cluster:        node,
			ClusterHandler: node.Handler(),
			Ingest: func(batch []server.KeyedSample) (int, int, error) {
				deduped := 0
				fresh := make([]engine.Sample, 0, len(batch))
				for _, ks := range batch {
					if ks.Source != "" && ks.Seq != 0 && !dedup.Apply(ks.ID, ks.Source, ks.Seq) {
						deduped++
						continue
					}
					fresh = append(fresh, ks.Sample)
				}
				if len(fresh) > 0 {
					if _, err := eng.IngestBatch(fresh); err != nil {
						return 0, deduped, err
					}
				}
				return len(fresh), deduped, nil
			},
			Applied: dedup.Applied,
		})
		if err != nil {
			t.Fatal(err)
		}
		node.SetDraining(srv.Draining)
		wsrv, err := wire.NewServer(wire.ServerConfig{
			Ingest:   srv.BinaryIngest,
			Draining: srv.Draining,
		})
		if err != nil {
			t.Fatal(err)
		}
		go wsrv.Serve(blns[i])
		wsrvs[tn.id] = wsrv
		tn.eng, tn.cache, tn.hist, tn.dedup, tn.node, tn.srv = eng, cache, hist, dedup, node, srv
		go srv.Serve(lns[i])
		node.Start()
		nodes[i] = tn
		t.Cleanup(func() {
			wsrv.Close()
			if !tn.down {
				tn.node.Close()
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				tn.srv.Shutdown(ctx)
				cancel()
			}
			tn.eng.Close()
		})
	}
	return nodes, wsrvs
}

// TestClusterForwardPrefersBinary: once heartbeats have advertised the
// owner's wire listener, owner-forwards go over the binary transport — and
// when that listener dies, forwarding falls back to HTTP without losing a
// batch.
func TestClusterForwardPrefersBinary(t *testing.T) {
	nodes, wsrvs := startBinaryTestCluster(t, 3, 2)
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
	wsrvs["n1"].Close()
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
