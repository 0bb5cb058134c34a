package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/acis-lab/larpredictor/internal/core"
	"github.com/acis-lab/larpredictor/internal/engine"
	"github.com/acis-lab/larpredictor/internal/obs"
	"github.com/acis-lab/larpredictor/internal/server"
	"github.com/acis-lab/larpredictor/internal/wire"
)

// testNode is one in-process cluster member: engine, dedup table, HTTP
// server, and clustering layer, on a real listener.
type testNode struct {
	id    string
	addr  string
	eng   *engine.Engine
	cache *server.ResultCache
	hist  *server.HistoryStore
	dedup *server.Dedup
	node  *Node
	srv   *server.Server
	wsrv  *wire.Server // binary ingest listener; nil unless asked for
	down  bool
}

func quickOnline(t testing.TB) func(string) (*core.Online, error) {
	return func(string) (*core.Online, error) {
		return core.NewOnline(core.OnlineConfig{
			Predictor:   core.DefaultConfig(5),
			TrainSize:   20,
			AuditWindow: 6,
		})
	}
}

func newTestHistory(t testing.TB) *server.HistoryStore {
	h, err := server.NewHistoryStore(server.HistoryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// startTestCluster brings up n members with fast detector timings. The
// ingest hook mirrors predictd's WAL path: keyed samples pass the dedup
// check before reaching the engine, so exactly-once assertions hold. With
// binary set, each member also serves a binary ingest listener and
// advertises it via Config.BinaryAddr, so heartbeats teach peers to prefer
// the binary forward transport.
func startTestCluster(t testing.TB, n, replication int, binary bool) []*testNode {
	t.Helper()
	lns := make([]net.Listener, n)
	blns := make([]net.Listener, n)
	members := make([]Member, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		members[i] = Member{ID: fmt.Sprintf("n%d", i), Addr: ln.Addr().String()}
		if binary {
			if blns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
		}
	}
	nodes := make([]*testNode, n)
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
		cfg := Config{
			Self:           tn.id,
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
		}
		if binary {
			cfg.BinaryAddr = blns[i].Addr().String()
		}
		node, err := New(cfg)
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
		if binary {
			if tn.wsrv, err = wire.NewServer(wire.ServerConfig{
				Ingest:   srv.BinaryIngest,
				Draining: srv.Draining,
			}); err != nil {
				t.Fatal(err)
			}
			go tn.wsrv.Serve(blns[i])
		}
		tn.eng, tn.cache, tn.hist, tn.dedup, tn.node, tn.srv = eng, cache, hist, dedup, node, srv
		go srv.Serve(lns[i])
		node.Start()
		nodes[i] = tn
		t.Cleanup(func() {
			if tn.wsrv != nil {
				tn.wsrv.Close()
			}
			if !tn.down {
				tn.node.Close()
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				tn.srv.Shutdown(ctx)
				cancel()
			}
			tn.eng.Close()
		})
	}
	return nodes
}

// stop simulates a node death: drain flips (heartbeats 503) and the
// listener closes, so peers see misses and connection refusals.
func (tn *testNode) stop(t testing.TB) {
	t.Helper()
	tn.down = true
	tn.node.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	tn.srv.Shutdown(ctx)
}

func ingestKeyed(t testing.TB, addr, source, stream string, seqBase uint64, values []float64) *http.Response {
	t.Helper()
	type sample struct {
		Stream string  `json:"stream"`
		Value  float64 `json:"value"`
		Seq    uint64  `json:"seq"`
	}
	req := struct {
		Source  string   `json:"source"`
		Samples []sample `json:"samples"`
	}{Source: source}
	for i, v := range values {
		req.Samples = append(req.Samples, sample{Stream: stream, Value: v, Seq: seqBase + uint64(i)})
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post("http://"+addr+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("ingest at %s: %v", addr, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

// streamOwnedBy finds a stream name whose rendezvous home is the given
// member — so tests can aim traffic at (or away from) a specific node.
func streamOwnedBy(t testing.TB, members []string, owner string, replica ...string) string {
	t.Helper()
search:
	for i := 0; i < 10000; i++ {
		name := fmt.Sprintf("stream-%s-%d", owner, i)
		order := Owners(members, name)
		if order[0] != owner {
			continue
		}
		for j, want := range replica {
			if order[j+1] != want {
				continue search
			}
		}
		return name
	}
	t.Fatalf("no stream owned by %s with replicas %v found", owner, replica)
	return ""
}

func memberIDs(nodes []*testNode) []string {
	ids := make([]string, len(nodes))
	for i, tn := range nodes {
		ids[i] = tn.id
	}
	return ids
}

func waitFor(t testing.TB, within time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestClusterForwardAndReplicate drives keyed ingest for a non-owned stream
// into one node and asserts the owner applied every sample exactly once and
// each follower converged to the same applied count via async replication.
func TestClusterForwardAndReplicate(t *testing.T) {
	nodes := startTestCluster(t, 3, 2, false)
	ids := memberIDs(nodes)
	byID := map[string]*testNode{}
	for _, tn := range nodes {
		byID[tn.id] = tn
	}

	// A stream owned by n1 with follower n2, ingested at n0: every sample
	// must forward, and n0 (outside the replica set) must hold nothing.
	stream := streamOwnedBy(t, ids, "n1", "n2")
	follower := "n2"
	const total = 40
	for i := 0; i < total; i += 10 {
		vals := make([]float64, 10)
		for j := range vals {
			vals[j] = float64(i + j)
		}
		resp := ingestKeyed(t, nodes[0].addr, "src-A", stream, uint64(i+1), vals)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest batch at %d: HTTP %d", i, resp.StatusCode)
		}
		if node := resp.Header.Get(server.NodeHeader); node != "n0" {
			t.Fatalf("NodeHeader = %q, want n0 (the node that accepted)", node)
		}
		if hint := resp.Header.Get(server.RouteHeader); hint != byID["n1"].addr {
			t.Fatalf("RouteHeader = %q, want owner addr %q", hint, byID["n1"].addr)
		}
	}

	if got, _ := byID["n1"].dedup.Applied(stream); got != total {
		t.Fatalf("owner applied %d, want %d", got, total)
	}
	if got, _ := byID["n0"].dedup.Applied(stream); got != 0 {
		t.Fatalf("accepting non-replica node applied %d, want 0", got)
	}
	waitFor(t, 3*time.Second, "replication to follower", func() bool {
		got, _ := byID[follower].dedup.Applied(stream)
		return got == total
	})

	// A duplicate of an already-acked batch dedups wherever it lands:
	// retried at the forwarding node and retried straight at the owner.
	ingestKeyed(t, nodes[0].addr, "src-A", stream, 1, []float64{0})
	ingestKeyed(t, byID["n1"].addr, "src-A", stream, 1, []float64{0})
	if got, _ := byID["n1"].dedup.Applied(stream); got != total {
		t.Fatalf("after duplicate retries owner applied %d, want %d", got, total)
	}
}

// TestClusterReadRoles exercises the three forecast serving roles: owner
// (fresh), replica (stale-flagged local view), and proxy (one hop).
func TestClusterReadRoles(t *testing.T) {
	nodes := startTestCluster(t, 3, 2, false)
	ids := memberIDs(nodes)
	byID := map[string]*testNode{}
	for _, tn := range nodes {
		byID[tn.id] = tn
	}
	stream := streamOwnedBy(t, ids, "n0", "n1")
	// n2 is neither owner nor follower for this stream.
	resp := ingestKeyed(t, byID["n0"].addr, "src-R", stream, 1, []float64{1, 2, 3})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("seed ingest: HTTP %d", resp.StatusCode)
	}
	waitFor(t, 3*time.Second, "replication to n1", func() bool {
		got, _ := byID["n1"].dedup.Applied(stream)
		return got == 3
	})

	get := func(addr string) *http.Response {
		r, err := http.Get("http://" + addr + "/v1/forecast/" + stream)
		if err != nil {
			t.Fatalf("forecast at %s: %v", addr, err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		return r
	}

	if r := get(byID["n0"].addr); r.StatusCode != http.StatusOK || r.Header.Get(server.StaleHeader) != "" {
		t.Fatalf("owner read: HTTP %d stale=%q, want 200 with no stale flag",
			r.StatusCode, r.Header.Get(server.StaleHeader))
	}
	if r := get(byID["n1"].addr); r.StatusCode != http.StatusOK || r.Header.Get(server.StaleHeader) != "true" {
		t.Fatalf("replica read: HTTP %d stale=%q, want 200 flagged stale",
			r.StatusCode, r.Header.Get(server.StaleHeader))
	}
	r := get(byID["n2"].addr)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("proxy read: HTTP %d, want 200", r.StatusCode)
	}
	if r.Header.Get(server.NodeHeader) != "n2" {
		t.Fatalf("proxy read served by %q, want n2 front", r.Header.Get(server.NodeHeader))
	}
	if r.Header.Get(server.RouteHeader) != byID["n0"].addr {
		t.Fatalf("proxy read RouteHeader = %q, want owner addr", r.Header.Get(server.RouteHeader))
	}
}

// TestClusterProxyForecastEscapesStreamIDs: a proxied read fetches exactly
// the stream it names from the peer's server, whatever URL metacharacters
// the ID holds. The decoys are what an unescaped "cpu?x" and "cpu%41" would
// fetch instead — another stream's forecast.
func TestClusterProxyForecastEscapesStreamIDs(t *testing.T) {
	nodes := startTestCluster(t, 2, 1, false)
	ids := []string{"cpu?x", "cpu#1", "cpu%41", "a b", "VM2/CPU_usedsec"}
	var samples []engine.Sample
	for i, id := range append(append([]string(nil), ids...), "cpu", "cpuA") {
		samples = append(samples, engine.Sample{ID: id, TS: 1, Value: float64(i)})
	}
	if _, err := nodes[1].eng.IngestBatch(samples); err != nil {
		t.Fatal(err)
	}
	nodes[1].eng.Drain()
	for i, id := range ids {
		body, err := nodes[0].node.ProxyForecast(context.Background(), nodes[1].id, id)
		if err != nil {
			t.Fatalf("ProxyForecast(%q): %v", id, err)
		}
		var doc server.ForecastResponse
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		if doc.Stream != id || doc.LastValue != float64(i) {
			t.Errorf("ProxyForecast(%q) served stream %q with last value %v", id, doc.Stream, doc.LastValue)
		}
	}
}

// TestClusterFailover kills a stream's owner and asserts the next member in
// rendezvous order takes over ingest and reads without losing samples.
func TestClusterFailover(t *testing.T) {
	nodes := startTestCluster(t, 3, 2, false)
	ids := memberIDs(nodes)
	byID := map[string]*testNode{}
	for _, tn := range nodes {
		byID[tn.id] = tn
	}
	stream := streamOwnedBy(t, ids, "n1", "n2")
	resp := ingestKeyed(t, byID["n0"].addr, "src-F", stream, 1, []float64{1, 2, 3, 4, 5})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("pre-kill ingest: HTTP %d", resp.StatusCode)
	}
	waitFor(t, 3*time.Second, "replication to n2", func() bool {
		got, _ := byID["n2"].dedup.Applied(stream)
		return got == 5
	})

	byID["n1"].stop(t)
	// Each detector confirms n1 down on its own schedule; n2 serves the
	// stream as owner only once its own detector has.
	for _, id := range []string{"n0", "n2"} {
		waitFor(t, 5*time.Second, id+" to confirm n1 down", func() bool {
			return byID[id].node.routeOwner(stream) == "n2"
		})
	}

	// Ingest at n0 now forwards to the promoted owner n2.
	resp = ingestKeyed(t, byID["n0"].addr, "src-F", stream, 6, []float64{6, 7, 8})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-failover ingest: HTTP %d", resp.StatusCode)
	}
	if got, _ := byID["n2"].dedup.Applied(stream); got != 8 {
		t.Fatalf("promoted owner applied %d, want 8", got)
	}

	// Reads at the promoted owner serve fresh; at n0 they proxy to n2.
	r, err := http.Get("http://" + byID["n2"].addr + "/v1/forecast/" + stream)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("promoted owner read: HTTP %d, want 200", r.StatusCode)
	}
	if r.Header.Get(server.StaleHeader) != "" {
		t.Fatalf("promoted owner read flagged stale; promotion should serve fresh")
	}
}

// TestClusterConfigValidation: the node refuses to start without any of
// its serving stores, the history store included.
func TestClusterConfigValidation(t *testing.T) {
	eng, err := engine.New(engine.Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	members := []Member{{ID: "a", Addr: "127.0.0.1:1"}, {ID: "b", Addr: "127.0.0.1:2"}}
	good := Config{Self: "a", Members: members, Engine: eng, Cache: server.NewResultCache(),
		Dedup: server.NewDedup(), History: newTestHistory(t)}
	if _, err := New(good); err != nil {
		t.Fatalf("complete config rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Config){
		"no engine":  func(c *Config) { c.Engine = nil },
		"no cache":   func(c *Config) { c.Cache = nil },
		"no dedup":   func(c *Config) { c.Dedup = nil },
		"no history": func(c *Config) { c.History = nil },
		"no peers":   func(c *Config) { c.Members = members[:1] },
		"not member": func(c *Config) { c.Self = "z" },
	} {
		cfg := good
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: config accepted", name)
		}
	}
}

// TestClusterHandoff verifies the warm-handoff pull: a node that lost its
// local state merges peers' dedup coverage and installs their stream state,
// so its applied counts match what the cluster acked, replay cannot
// double-apply, and its forecast and history reads are the source peer's.
func TestClusterHandoff(t *testing.T) {
	nodes := startTestCluster(t, 3, 2, false)
	ids := memberIDs(nodes)
	byID := map[string]*testNode{}
	for _, tn := range nodes {
		byID[tn.id] = tn
	}
	// Stream homed on n1 with follower n2; n1 will "restart" cold. Enough
	// samples to train the predictor and close two 16-step history rows.
	const n = 40
	stream := streamOwnedBy(t, ids, "n1", "n2")
	values := make([]float64, n)
	for i := range values {
		values[i] = 10 + 3*math.Sin(float64(i)/4) + float64(i%3)
	}
	resp := ingestKeyed(t, byID["n1"].addr, "src-H", stream, 1, values)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("seed ingest: HTTP %d", resp.StatusCode)
	}
	waitFor(t, 3*time.Second, "replication to n2", func() bool {
		got, _ := byID["n2"].dedup.Applied(stream)
		return got == n
	})
	for _, tn := range nodes {
		tn.eng.Drain()
	}

	// Simulate n1 restarting with empty state: fresh dedup + engine-level
	// stream removal is overkill in-process, so pull into a brand-new table
	// via a second Node sharing n1's identity but empty serving state.
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
	defer eng.Close()
	members := make([]Member, len(nodes))
	for i, tn := range nodes {
		members[i] = Member{ID: tn.id, Addr: tn.addr}
	}
	fresh, err := New(Config{
		Self:        "n1",
		Members:     members,
		Replication: 2,
		Engine:      eng,
		Cache:       cache,
		Dedup:       dedup,
		History:     hist,
		Logw:        io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if got := fresh.PullHandoff(ctx); got == 0 {
		t.Fatal("PullHandoff restored nothing; want at least the seeded stream")
	}
	if got, _ := dedup.Applied(stream); got != n {
		t.Fatalf("handoff-merged applied = %d, want %d", got, n)
	}
	// Replaying the already-acked samples against the merged table dedups.
	for seq := uint64(1); seq <= n; seq++ {
		if dedup.Apply(stream, "src-H", seq) {
			t.Fatalf("seq %d re-applied after handoff merge; exactly-once violated", seq)
		}
	}

	// The fresh node serves what the source peer serves. Both replicas
	// applied the same samples in the same order, so either may have won.
	srv, err := server.New(server.Config{Engine: eng, Cache: cache, History: hist, Applied: dedup.Applied})
	if err != nil {
		t.Fatal(err)
	}
	local := httptest.NewServer(srv.Handler())
	defer local.Close()
	read := func(base, path string) []byte {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, base+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(server.ClusterHeader, server.ClusterRead)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s%s: HTTP %d, %v: %s", base, path, resp.StatusCode, err, body)
		}
		return body
	}
	source := "http://" + byID["n1"].addr
	for _, path := range []string{
		"/v1/forecast/" + stream + "/history",
		"/v1/forecast/" + stream + "/history?step=16",
	} {
		if got, want := read(local.URL, path), read(source, path); !bytes.Equal(got, want) {
			t.Errorf("GET %s after handoff:\n got %s\nwant %s", path, got, want)
		}
	}
	// A restored stream counts its processed samples anew; every other
	// field of the forecast document must match byte for byte.
	var got, want server.ForecastResponse
	if err := json.Unmarshal(read(local.URL, "/v1/forecast/"+stream), &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(read(source, "/v1/forecast/"+stream), &want); err != nil {
		t.Fatal(err)
	}
	if got.Processed != 0 || want.Forecast == nil {
		t.Fatalf("processed = %d after handoff (want 0); source forecast %+v", got.Processed, want.Forecast)
	}
	want.Processed = 0
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want)
	if !bytes.Equal(gb, wb) {
		t.Errorf("forecast document after handoff:\n got %s\nwant %s", gb, wb)
	}
}
