package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/acis-lab/larpredictor/client"
	"github.com/acis-lab/larpredictor/internal/durable"
	"github.com/acis-lab/larpredictor/internal/engine"
	"github.com/acis-lab/larpredictor/internal/obs"
	"github.com/acis-lab/larpredictor/internal/server"
	"github.com/acis-lab/larpredictor/internal/wire"
)

// Member is one node of the static membership: an ID (stable across
// restarts — it anchors rendezvous placement) and the advertised address
// peers dial it on.
type Member struct {
	ID   string
	Addr string // "host:port"
}

// ParseMembers reads the -peers flag form "a=host:port,b=host:port,...".
func ParseMembers(s string) ([]Member, error) {
	if strings.TrimSpace(s) == "" {
		return nil, errors.New("cluster: empty membership")
	}
	var out []Member
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("cluster: bad member %q (want id=host:port)", part)
		}
		if seen[id] {
			return nil, fmt.Errorf("cluster: duplicate member ID %q", id)
		}
		seen[id] = true
		out = append(out, Member{ID: id, Addr: addr})
	}
	if len(out) == 0 {
		return nil, errors.New("cluster: empty membership")
	}
	return out, nil
}

// Config shapes a Node. Engine, Cache, Dedup, History, Self, and Members
// are required; every duration and count has a serving-safe default.
type Config struct {
	// Self is this node's member ID; Members must contain it (that entry's
	// Addr is the address this node advertises to peers).
	Self    string
	Members []Member
	// BinaryAddr, when set, is the binary ingest listener address this node
	// advertises in heartbeat responses. Peers that learn it forward
	// owner-routed batches over the wire protocol instead of HTTP/JSON,
	// falling back to HTTP whenever the binary transport fails.
	BinaryAddr string
	// Replication is the number of copies of each stream (owner plus
	// Replication−1 followers), clamped to the membership size. Default 2.
	Replication int

	// HeartbeatEvery is the probe interval and bounds each probe (default
	// 500ms). SuspectAfter consecutive missed probes mark a peer suspect
	// (default 3); a peer that stays suspect for DownAfter is confirmed down
	// (default 2s).
	HeartbeatEvery time.Duration
	SuspectAfter   int
	DownAfter      time.Duration

	// Engine, Cache, Dedup, and History are the node's serving state. Warm
	// handoffs ship each stream's predictor, serving snapshot, history rings
	// and dedup coverage as one record of the snapshot's record stream
	// (server.StreamRecord), so a failover replica (and a rejoining node)
	// serves range queries without a gap; the engine's own NewStream builds
	// each installed predictor.
	Engine  *engine.Engine
	Cache   *server.ResultCache
	Dedup   *server.Dedup
	History *server.HistoryStore

	// Registry instruments the node; nil leaves it uninstrumented.
	Registry *obs.Registry
	// Logw receives one line per membership event; nil discards.
	Logw io.Writer
}

const (
	// replicaQueue bounds each peer's pending replication queue in batches.
	// A full queue drops the oldest batch — the follower heals the gap at
	// its next warm handoff.
	replicaQueue = 4096
	// forwardAttempts bounds the synchronous forward retry loop; the
	// external client retries above us.
	forwardAttempts = 4
)

// Node is one predictd's clustering layer. Construct with New, wire its
// Handler and server hooks, then Start the detector and replicators.
type Node struct {
	cfg       Config
	self      Member
	memberIDs []string          // every member ID, sorted (rendezvous input)
	addrs     map[string]string // peer ID -> addr (self excluded)
	allAddrs  map[string]string // every member ID -> addr

	det  *detector
	fwd  map[string]*client.Client // synchronous forward path, per peer
	repl map[string]*replicator    // async replication, per peer

	// bconns caches one wire connection per peer that advertises a binary
	// ingest address; entries drop on any transport error and redial on the
	// next forward.
	bmu    sync.Mutex
	bconns map[string]*wire.Conn

	proxyc   *http.Client
	handoffc *http.Client

	// draining, when set, reports the server's drain state so heartbeats
	// answer 503 and peers fail over before the listener closes. Set it
	// before Start.
	draining func() bool

	forwards        *obs.CounterVec
	forwardFails    *obs.CounterVec
	binaryForwards  *obs.CounterVec
	handoffServed   *obs.Counter
	handoffReceived *obs.Counter

	started bool
}

// New validates cfg and builds the node (no goroutines yet).
func New(cfg Config) (*Node, error) {
	if cfg.Engine == nil || cfg.Cache == nil || cfg.Dedup == nil || cfg.History == nil {
		return nil, errors.New("cluster: Engine, Cache, Dedup, and History are required")
	}
	if len(cfg.Members) < 2 {
		return nil, errors.New("cluster: need at least 2 members")
	}
	var self Member
	found := false
	for _, m := range cfg.Members {
		if m.ID == cfg.Self {
			self, found = m, true
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: self %q not in membership", cfg.Self)
	}
	if cfg.Replication == 0 {
		cfg.Replication = 2
	}
	if cfg.Replication < 1 {
		return nil, fmt.Errorf("cluster: replication %d < 1", cfg.Replication)
	}
	if cfg.Replication > len(cfg.Members) {
		cfg.Replication = len(cfg.Members)
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 500 * time.Millisecond
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 3
	}
	if cfg.DownAfter <= 0 {
		cfg.DownAfter = 2 * time.Second
	}
	if cfg.Logw == nil {
		cfg.Logw = io.Discard
	}

	n := &Node{
		cfg:      cfg,
		self:     self,
		addrs:    map[string]string{},
		allAddrs: map[string]string{},
		fwd:      map[string]*client.Client{},
		repl:     map[string]*replicator{},
		bconns:   map[string]*wire.Conn{},
		proxyc:   &http.Client{Timeout: 2 * time.Second},
		handoffc: &http.Client{Timeout: 30 * time.Second},
	}
	for _, m := range cfg.Members {
		n.memberIDs = append(n.memberIDs, m.ID)
		n.allAddrs[m.ID] = m.Addr
		if m.ID != cfg.Self {
			n.addrs[m.ID] = m.Addr
		}
	}
	sort.Strings(n.memberIDs)

	var nodeState *obs.GaugeVec
	var lag *obs.GaugeVec
	var replicated, drops *obs.CounterVec
	if reg := cfg.Registry; reg != nil {
		n.forwards = reg.Counter("predictd_cluster_forwards_total",
			"Samples forwarded to their owning node, by peer.", "peer")
		n.forwardFails = reg.Counter("predictd_cluster_forward_failures_total",
			"Forwarded sub-batches that exhausted their retries, by peer.", "peer")
		n.binaryForwards = reg.Counter("predictd_cluster_binary_forwards_total",
			"Samples forwarded to their owning node over the binary wire transport, by peer.", "peer")
		nodeState = reg.Gauge("predictd_cluster_node_state",
			"Failure-detector verdict per member: 0 alive, 1 suspect, 2 down.", "node")
		lag = reg.Gauge("predictd_cluster_replication_lag",
			"Replication batches queued per follower.", "peer")
		replicated = reg.Counter("predictd_cluster_replicated_samples_total",
			"Samples replicated to followers, by peer.", "peer")
		drops = reg.Counter("predictd_cluster_replication_drops_total",
			"Replication batches dropped on queue overflow or terminal send failure, by peer.", "peer")
		n.handoffServed = reg.Counter1("predictd_cluster_handoff_streams_served_total",
			"Stream states shipped to rejoining peers.")
		n.handoffReceived = reg.Counter1("predictd_cluster_handoff_streams_received_total",
			"Stream states installed from peers at warm handoff.")
	}

	n.det = newDetector(cfg.Self, n.addrs, cfg.HeartbeatEvery,
		cfg.SuspectAfter, cfg.DownAfter, nodeState, cfg.Logw)

	for id, addr := range n.addrs {
		fc, err := client.New(client.Config{
			BaseURL:          "http://" + addr,
			RequestTimeout:   2 * time.Second,
			MaxAttempts:      forwardAttempts,
			BaseBackoff:      20 * time.Millisecond,
			MaxBackoff:       500 * time.Millisecond,
			BreakerThreshold: 5,
			BreakerCooldown:  cfg.HeartbeatEvery,
			Headers:          map[string]string{server.ClusterHeader: server.ClusterForward},
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: forward client for %s: %w", id, err)
		}
		n.fwd[id] = fc
		rc, err := client.New(client.Config{
			BaseURL:          "http://" + addr,
			RequestTimeout:   2 * time.Second,
			MaxAttempts:      -1, // the replicator owns the batch until it lands
			BaseBackoff:      20 * time.Millisecond,
			MaxBackoff:       time.Second,
			BreakerThreshold: -1,
			Headers:          map[string]string{server.ClusterHeader: server.ClusterReplicate},
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: replication client for %s: %w", id, err)
		}
		var lagG *obs.Gauge
		var repC, dropC *obs.Counter
		if lag != nil {
			lagG = lag.WithLabels(id)
			repC = replicated.WithLabels(id)
			dropC = drops.WithLabels(id)
		}
		n.repl[id] = newReplicator(id, rc, replicaQueue, lagG, repC, dropC, cfg.Logw)
	}
	return n, nil
}

// SetDraining wires the server's drain state into heartbeat responses;
// call before Start.
func (n *Node) SetDraining(f func() bool) { n.draining = f }

// Start launches the failure detector's probers and the per-peer
// replication workers.
func (n *Node) Start() {
	if n.started {
		return
	}
	n.started = true
	n.det.start()
	for _, r := range n.repl {
		r.start()
	}
}

// Close stops the probers and replicators. Queued replication batches are
// dropped — every acked sample is already durable locally, and followers
// heal through handoff.
func (n *Node) Close() {
	if !n.started {
		return
	}
	n.started = false
	n.det.close()
	for _, r := range n.repl {
		r.close()
	}
	n.closeBinaryConns()
}

// ---- placement ----

// routeOwner is the stream's current serving owner: the first member in
// rendezvous order the detector has not confirmed down. When the home
// owner dies, this is exactly "the next node in rendezvous order
// promotes"; when every member looks down (a partitioned node's view),
// the node serves locally rather than going dark.
func (n *Node) routeOwner(stream string) string {
	for _, id := range Owners(n.memberIDs, stream) {
		if n.det.alive(id) {
			return id
		}
	}
	return n.cfg.Self
}

// replicaSet is the stream's owner-plus-followers over the full static
// membership — deliberately not filtered by liveness, so batches for a
// down follower queue up and drain when it rejoins.
func (n *Node) replicaSet(stream string) []string {
	return ReplicaSet(n.memberIDs, stream, n.cfg.Replication)
}

// NodeID implements server.Cluster.
func (n *Node) NodeID() string { return n.cfg.Self }

// PeerAddr implements server.Cluster.
func (n *Node) PeerAddr(peer string) string { return n.allAddrs[peer] }

// Route implements server.Cluster: samples whose routing owner is this
// node stay local; the rest group by owner for forwarding.
func (n *Node) Route(batch []server.KeyedSample) (local []server.KeyedSample, forward map[string][]server.KeyedSample) {
	for _, ks := range batch {
		owner := n.routeOwner(ks.ID)
		if owner == n.cfg.Self {
			local = append(local, ks)
			continue
		}
		if forward == nil {
			forward = map[string][]server.KeyedSample{}
		}
		forward[owner] = append(forward[owner], ks)
	}
	return local, forward
}

// Forward implements server.Cluster: ship a sub-batch to its owner, one
// request per distinct source so each request's idempotency keys stay
// coherent. When the owner's heartbeats advertise a binary ingest address
// the batch goes over the wire protocol on a cached persistent connection;
// any binary failure falls back to the retrying HTTP client for this call
// and redials on the next (the keys make the double-path retry safe).
func (n *Node) Forward(ctx context.Context, peer string, batch []server.KeyedSample) (accepted, deduped int, err error) {
	fc, ok := n.fwd[peer]
	if !ok {
		return 0, 0, fmt.Errorf("cluster: forward to unknown peer %q", peer)
	}
	if addr := n.binaryAddrOf(peer); addr != "" {
		if acc, ded, berr := n.forwardBinary(ctx, peer, addr, batch); berr == nil {
			return acc, ded, nil
		} else {
			fmt.Fprintf(n.cfg.Logw, "cluster[%s]: binary forward to %s: %v (falling back to HTTP)\n",
				n.cfg.Self, peer, berr)
		}
	}
	for _, group := range groupBySource(batch) {
		resp, ferr := fc.IngestFrom(ctx, group.source, group.samples)
		if ferr != nil {
			if n.forwardFails != nil {
				n.forwardFails.WithLabels(peer).Inc()
			}
			return accepted, deduped, fmt.Errorf("cluster: forward to %s: %w", peer, ferr)
		}
		accepted += resp.Accepted
		deduped += resp.Deduped
		if n.forwards != nil {
			n.forwards.WithLabels(peer).Add(uint64(len(group.samples)))
		}
	}
	return accepted, deduped, nil
}

// Replicate implements server.Cluster: queue locally applied samples for
// every follower in the stream's replica set. Non-blocking; a follower
// that cannot keep up (or is down) accumulates queue, visible as
// predictd_cluster_replication_lag.
func (n *Node) Replicate(batch []server.KeyedSample) {
	type key struct{ peer, source string }
	groups := map[key][]client.Sample{}
	var order []key
	for _, ks := range batch {
		for _, peer := range n.replicaSet(ks.ID) {
			if peer == n.cfg.Self {
				continue
			}
			k := key{peer, ks.Source}
			if _, ok := groups[k]; !ok {
				order = append(order, k)
			}
			groups[k] = append(groups[k], client.Sample{
				Stream: ks.ID, TS: ks.TS, Value: ks.Value, Seq: ks.Seq,
			})
		}
	}
	for _, k := range order {
		if r, ok := n.repl[k.peer]; ok {
			r.enqueue(repBatch{source: k.source, samples: groups[k]})
		}
	}
}

// ReadRole implements server.Cluster.
func (n *Node) ReadRole(stream string) (server.ReadRole, string) {
	owner := n.routeOwner(stream)
	if owner == n.cfg.Self {
		return server.ReadOwner, ""
	}
	for _, id := range n.replicaSet(stream) {
		if id == n.cfg.Self {
			return server.ReadReplica, owner
		}
	}
	return server.ReadProxy, owner
}

// ProxyForecast implements server.Cluster: one marked GET at the owner, no
// retries — the caller decides the fallback.
func (n *Node) ProxyForecast(ctx context.Context, peer, stream string) ([]byte, error) {
	addr, ok := n.allAddrs[peer]
	if !ok {
		return nil, fmt.Errorf("cluster: proxy to unknown peer %q", peer)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		"http://"+addr+"/v1/forecast/"+url.PathEscape(stream), nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(server.ClusterHeader, server.ClusterRead)
	resp, err := n.proxyc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: proxy read %s at %s: HTTP %d", stream, peer, resp.StatusCode)
	}
	return body, nil
}

// sourceGroup is one source's run of a batch, in arrival order.
type sourceGroup struct {
	source  string
	samples []client.Sample
}

func groupBySource(batch []server.KeyedSample) []sourceGroup {
	var out []sourceGroup
	idx := map[string]int{}
	for _, ks := range batch {
		i, ok := idx[ks.Source]
		if !ok {
			i = len(out)
			idx[ks.Source] = i
			out = append(out, sourceGroup{source: ks.Source})
		}
		out[i].samples = append(out[i].samples, client.Sample{
			Stream: ks.ID, TS: ks.TS, Value: ks.Value, Seq: ks.Seq,
		})
	}
	return out
}

// ---- warm handoff ----

// serveHandoff writes the record stream of every local stream the
// requester owns or follows: the number of records, then the records. The
// engine is drained first so predictor state reflects every sample the
// dedup table has admitted. Each stream is captured and written on its own
// (server.RecordWriter), its record carrying the dedup windows read under
// the same shard lock as its state, so the response never holds more than
// one stream. A capture or write error ends the response early; the puller
// sees the missing records and keeps the ones it installed.
func (n *Node) serveHandoff(w http.ResponseWriter, requester string) {
	n.cfg.Engine.Drain()
	var ids []string
	n.cfg.Engine.Each(func(id string, _ engine.StreamStats) { ids = append(ids, id) })
	ids = slices.DeleteFunc(ids, func(id string) bool {
		return !slices.Contains(n.replicaSet(id), requester)
	})
	rw, err := server.NewRecordWriter(w, len(ids))
	served := 0
	for err == nil && served < len(ids) {
		if err = rw.WriteStream(n.cfg.Engine, n.cfg.Cache, n.cfg.History, n.cfg.Dedup, ids[served]); err == nil {
			served++
		}
	}
	n.handoffServed.Add(uint64(served))
	if err != nil {
		fmt.Fprintf(n.cfg.Logw, "cluster[%s]: handoff to %s cut after %d of %d streams: %v\n",
			n.cfg.Self, requester, served, len(ids), err)
		return
	}
	fmt.Fprintf(n.cfg.Logw, "cluster[%s]: served handoff of %d streams to %s\n",
		n.cfg.Self, served, requester)
}

// heldStream is the state PullHandoff compares a stream's records with.
type heldStream struct {
	applied   uint64
	lastTS    int64
	serving   bool // lastTS is known: a cache entry exists
	installed bool // a peer's record was installed
}

// PullHandoff asks every peer for the streams this node owns or follows
// and takes in each record as it arrives: its dedup windows merge into the
// local table, and its state is installed when it is strictly ahead of the
// state this node holds. Ahead means a higher applied count, or an equal
// count and a later serving snapshot; the state held starts as the local
// one and becomes each installed record's, so the result is the freshest
// copy in the cluster. Callers run it after restoring their own snapshot
// and before replaying their WAL, so replay applies exactly the samples no
// copy has seen. Peer failures are logged and skipped (at cold bootstrap
// nobody answers, and that is fine); a response cut short keeps the
// records that arrived whole. It returns how many streams were installed.
func (n *Node) PullHandoff(ctx context.Context) (restored int) {
	held := map[string]*heldStream{}
	for peer, addr := range n.addrs {
		err := n.pullHandoff(ctx, addr, func(rec *server.StreamRecord) error {
			h := held[rec.ID]
			if h == nil {
				// The local state, read before the first merge: MergeStream
				// rewrites the applied count as coverage unions in.
				h = &heldStream{}
				h.applied, _ = n.cfg.Dedup.Applied(rec.ID)
				local, ok := n.cfg.Cache.Latest(rec.ID)
				h.lastTS, h.serving = local.LastTS, ok
				held[rec.ID] = h
			}
			n.cfg.Dedup.MergeStream(rec.ID, rec.Windows)
			lastTS := rec.State.Cache.LastTS
			if rec.Applied < h.applied || rec.Applied == h.applied && h.serving && lastTS <= h.lastTS {
				return nil
			}
			// InstallStream takes the peer's history only when it is ahead:
			// the record won on applied count, but a local ring rebuilt by
			// WAL replay could still be longer for unkeyed traffic.
			if err := server.InstallStream(n.cfg.Engine, n.cfg.Cache, n.cfg.History, rec.ID, rec.State); err != nil {
				fmt.Fprintf(n.cfg.Logw, "cluster[%s]: handoff install %s from %s: %v\n", n.cfg.Self, rec.ID, peer, err)
				return nil
			}
			h.applied, h.lastTS, h.serving = rec.Applied, lastTS, true
			if !h.installed {
				h.installed = true
				restored++
				n.handoffReceived.Inc()
			}
			return nil
		})
		if err != nil {
			fmt.Fprintf(n.cfg.Logw, "cluster[%s]: handoff pull from %s: %v\n", n.cfg.Self, peer, err)
		}
	}
	return restored
}

// pullHandoff requests the handoff of the peer at addr and passes each
// record to take as it decodes (durable.StreamReader).
func (n *Node) pullHandoff(ctx context.Context, addr string, take func(*server.StreamRecord) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+addr+"/v1/cluster/handoff?node="+url.QueryEscape(n.cfg.Self), nil)
	if err != nil {
		return err
	}
	resp, err := n.handoffc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, raw)
	}
	var streams int
	rr, err := durable.NewStreamReader[server.StreamRecord](resp.Body, &streams)
	if err != nil {
		return err
	}
	return rr.ReadRecords(streams, take)
}
