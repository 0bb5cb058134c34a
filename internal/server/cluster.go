package server

import "context"

// Cluster wire contract: the headers clustered nodes exchange. The server
// package owns the names because they are part of its HTTP surface; the
// cluster package implements the behavior behind them.
const (
	// ClusterHeader marks intra-cluster requests and names their kind.
	// External client requests carry no ClusterHeader; the server only
	// routes (and re-replicates) batches that arrive without one, which is
	// what bounds forwarding to a single hop and makes replication fan-out
	// terminate.
	ClusterHeader = "X-Predictd-Cluster"
	// ClusterForward marks a batch forwarded from the node that accepted
	// it to the stream's routing owner. The receiver applies it locally —
	// even if membership views disagree about ownership — and replicates.
	ClusterForward = "forward"
	// ClusterReplicate marks a batch the owner is replicating to a
	// follower. The receiver applies it locally and never re-replicates.
	ClusterReplicate = "replicate"
	// ClusterRead marks a proxied forecast read; the receiver serves its
	// local view and never re-proxies.
	ClusterRead = "read"

	// StaleHeader is set (to "true") on forecast responses served from a
	// replica rather than the stream's routing owner: correct as of the
	// last replicated batch, but possibly behind the owner.
	StaleHeader = "X-Predictd-Stale"
	// RouteHeader carries a routing hint: the address of the node that
	// owns the stream(s) this request touched. Cluster-aware clients pin
	// their next requests there.
	RouteHeader = "X-Predictd-Route"
	// NodeHeader names the node that served the response; purely
	// diagnostic.
	NodeHeader = "X-Predictd-Node"
)

// ReadRole says how this node should serve a forecast read for a stream.
type ReadRole int

const (
	// ReadOwner: this node is the stream's routing owner; serve fresh.
	ReadOwner ReadRole = iota
	// ReadReplica: this node replicates the stream; serve the local view,
	// flagged stale.
	ReadReplica
	// ReadProxy: this node holds nothing for the stream; proxy the read to
	// the owner.
	ReadProxy
)

// Cluster is the server's view of the clustering layer (implemented by
// internal/cluster; an interface here so server never imports it). All
// methods are safe for concurrent use from request handlers.
type Cluster interface {
	// NodeID is this node's member ID.
	NodeID() string
	// Route splits an externally received batch into the samples this node
	// owns (apply locally) and the samples to forward, grouped by owner
	// peer ID.
	Route(batch []KeyedSample) (local []KeyedSample, forward map[string][]KeyedSample)
	// Forward synchronously ships a sub-batch to a peer and returns its
	// accounting; it must inherit the client package's retry discipline.
	Forward(ctx context.Context, peer string, batch []KeyedSample) (accepted, deduped int, err error)
	// Replicate queues locally applied samples for asynchronous
	// replication to the stream's followers. It must not block.
	Replicate(batch []KeyedSample)
	// ReadRole reports how to serve a forecast read for the stream; peer
	// is the routing owner when the role is not ReadOwner.
	ReadRole(stream string) (role ReadRole, peer string)
	// ProxyForecast fetches the raw forecast document from the peer.
	ProxyForecast(ctx context.Context, peer, stream string) ([]byte, error)
	// PeerAddr resolves a peer ID to its advertised address for routing
	// hints ("" when unknown).
	PeerAddr(peer string) string
}
