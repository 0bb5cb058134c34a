package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// StatusDoc is the GET /v1/cluster/status document: this node's view of
// the membership. Peers' verdicts come from the local failure detector, so
// two nodes' status documents can disagree during a transition — that is
// the nature of the beast, and why the soak polls every node.
type StatusDoc struct {
	Node        string                `json:"node"`
	Replication int                   `json:"replication"`
	Members     []MemberStatus        `json:"members"`
	Replicators map[string]ReplStatus `json:"replicators,omitempty"`
	Handoff     HandoffStatus         `json:"handoff"`
}

// MemberStatus is one member's row in the status document.
type MemberStatus struct {
	ID    string `json:"id"`
	Addr  string `json:"addr"`
	State string `json:"state"` // alive | suspect | down
	Self  bool   `json:"self,omitempty"`
}

// ReplStatus is one follower's replication telemetry.
type ReplStatus struct {
	Queued  int    `json:"queued"`
	Sent    uint64 `json:"sent_samples"`
	Dropped uint64 `json:"dropped_batches"`
}

// HandoffStatus counts warm-handoff traffic through this node.
type HandoffStatus struct {
	StreamsServed   uint64 `json:"streams_served"`
	StreamsReceived uint64 `json:"streams_received"`
}

// Status captures the node's current membership view.
func (n *Node) Status() StatusDoc {
	doc := StatusDoc{
		Node:        n.cfg.Self,
		Replication: n.cfg.Replication,
		Replicators: map[string]ReplStatus{},
		Handoff: HandoffStatus{
			StreamsServed:   n.handoffServed.Value(),
			StreamsReceived: n.handoffReceived.Value(),
		},
	}
	for _, id := range n.memberIDs {
		doc.Members = append(doc.Members, MemberStatus{
			ID:    id,
			Addr:  n.allAddrs[id],
			State: n.det.stateOf(id).String(),
			Self:  id == n.cfg.Self,
		})
	}
	for id, r := range n.repl {
		doc.Replicators[id] = ReplStatus{
			Queued:  len(r.ch),
			Sent:    r.sent.Value(),
			Dropped: r.drops.Value(),
		}
	}
	return doc
}

// Handler serves the intra-cluster API under /v1/cluster/: heartbeat
// probes, the status document, and warm-handoff pulls. Mounted by the
// server ahead of its generic /v1 routes so cluster traffic bypasses
// admission control — a shed heartbeat would read as a dead node.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/cluster/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		if n.draining != nil && n.draining() {
			// Fail probes ahead of the listener closing so peers start the
			// suspect clock before connections start refusing.
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if n.cfg.BinaryAddr != "" {
			// Advertise the binary ingest listener so peers can forward
			// owner-routed batches over the wire protocol.
			fmt.Fprintf(w, "{\"node\":%q,\"binary\":%q}\n", n.cfg.Self, n.cfg.BinaryAddr)
		} else {
			fmt.Fprintf(w, "{\"node\":%q}\n", n.cfg.Self)
		}
	})
	mux.HandleFunc("/v1/cluster/status", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(n.Status())
	})
	mux.HandleFunc("/v1/cluster/handoff", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		// The requester names itself in ?node=. A peer of an earlier
		// release names itself in a JSON body instead and gets this 400.
		requester := r.URL.Query().Get("node")
		if _, ok := n.allAddrs[requester]; !ok {
			http.Error(w, "bad handoff request: ?node= names no member", http.StatusBadRequest)
			return
		}
		n.serveHandoff(w, requester)
	})
	return mux
}
