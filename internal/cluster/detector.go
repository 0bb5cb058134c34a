package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/acis-lab/larpredictor/internal/obs"
)

// PeerState is a peer's failure-detector verdict.
type PeerState int

const (
	// StateAlive: the peer answers heartbeats; it is routed to normally.
	StateAlive PeerState = iota
	// StateSuspect: the peer missed at least SuspectAfter consecutive probe
	// deadlines. It is still routed to — a suspect node gets the benefit of
	// the doubt until the confirmation window expires.
	StateSuspect
	// StateDown: the peer stayed suspect for the full confirmation window.
	// It is excluded from routing; the next member in rendezvous order
	// serves its streams until it answers a probe again.
	StateDown
)

// String implements fmt.Stringer.
func (s PeerState) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDown:
		return "down"
	}
	return fmt.Sprintf("PeerState(%d)", int(s))
}

// peerHealth is one peer's detector state. Guarded by detector.mu.
type peerHealth struct {
	state     PeerState
	misses    int       // consecutive missed probe deadlines
	suspectAt time.Time // when the peer entered Suspect
}

// detector is the heartbeat failure detector: one prober goroutine per
// peer GETs the peer's /v1/cluster/heartbeat every HeartbeatEvery, each
// probe bounded by that same interval. SuspectAfter consecutive misses demote Alive→Suspect;
// staying Suspect for DownAfter confirms Down. Any successful probe
// restores Alive immediately.
type detector struct {
	self           string
	heartbeatEvery time.Duration
	suspectAfter   int
	downAfter      time.Duration

	httpc *http.Client
	logw  io.Writer

	state *obs.GaugeVec // predictd_cluster_node_state{node}

	mu    sync.Mutex
	peers map[string]*peerHealth
	addrs map[string]string
	// binAddrs holds each peer's advertised binary ingest address, learned
	// from heartbeat bodies; empty means the peer advertises none.
	binAddrs map[string]string

	stop chan struct{}
	wg   sync.WaitGroup
}

func newDetector(self string, peers map[string]string, hbEvery time.Duration,
	suspectAfter int, downAfter time.Duration, state *obs.GaugeVec, logw io.Writer) *detector {
	d := &detector{
		self:           self,
		heartbeatEvery: hbEvery,
		suspectAfter:   suspectAfter,
		downAfter:      downAfter,
		httpc:          &http.Client{Timeout: hbEvery},
		logw:           logw,
		state:          state,
		peers:          make(map[string]*peerHealth, len(peers)),
		addrs:          peers,
		binAddrs:       make(map[string]string, len(peers)),
		stop:           make(chan struct{}),
	}
	for id := range peers {
		d.peers[id] = &peerHealth{state: StateAlive}
		d.setGauge(id, StateAlive)
	}
	d.setGauge(self, StateAlive)
	return d
}

// start launches one prober per peer.
func (d *detector) start() {
	for id, addr := range d.addrs {
		d.wg.Add(1)
		go d.probeLoop(id, addr)
	}
}

// close stops every prober and waits them out.
func (d *detector) close() {
	close(d.stop)
	d.wg.Wait()
	d.httpc.CloseIdleConnections()
}

// alive reports whether id should be routed to: the local node is always
// alive to itself; peers count until confirmed Down.
func (d *detector) alive(id string) bool {
	if id == d.self {
		return true
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	ph, ok := d.peers[id]
	return ok && ph.state != StateDown
}

// stateOf returns the detector's verdict for id (the local node is Alive).
func (d *detector) stateOf(id string) PeerState {
	if id == d.self {
		return StateAlive
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	ph, ok := d.peers[id]
	if !ok {
		return StateDown
	}
	return ph.state
}

func (d *detector) setGauge(id string, s PeerState) {
	if d.state != nil {
		d.state.WithLabels(id).Set(float64(s))
	}
}

func (d *detector) probeLoop(id, addr string) {
	defer d.wg.Done()
	t := time.NewTicker(d.heartbeatEvery)
	defer t.Stop()
	url := "http://" + addr + "/v1/cluster/heartbeat"
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
		}
		if ok, binAddr := d.probe(url); ok {
			d.noteSuccess(id, binAddr)
		} else {
			d.noteMiss(id)
		}
	}
}

// probe issues one heartbeat GET under the probe deadline. Any 2xx counts;
// everything else — refused, timed out, draining (503) — is a miss. The
// body carries the peer's advertised binary ingest address (empty when the
// peer runs HTTP-only); an unparsable body still counts as alive, just
// without a binary advertisement.
func (d *detector) probe(url string) (ok bool, binaryAddr string) {
	resp, err := d.httpc.Get(url)
	if err != nil {
		return false, ""
	}
	var hb struct {
		Node   string `json:"node"`
		Binary string `json:"binary"`
	}
	body, rerr := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return false, ""
	}
	if rerr == nil {
		json.Unmarshal(body, &hb)
	}
	return true, hb.Binary
}

func (d *detector) binaryAddr(id string) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.binAddrs[id]
}

func (d *detector) noteSuccess(id, binaryAddr string) {
	d.mu.Lock()
	ph := d.peers[id]
	prev := ph.state
	ph.misses = 0
	ph.state = StateAlive
	d.binAddrs[id] = binaryAddr
	d.mu.Unlock()
	if prev != StateAlive {
		d.setGauge(id, StateAlive)
		fmt.Fprintf(d.logw, "cluster[%s]: peer %s %s -> alive\n", d.self, id, prev)
	}
}

func (d *detector) noteMiss(id string) {
	d.mu.Lock()
	ph := d.peers[id]
	ph.misses++
	misses := ph.misses
	var transition PeerState = -1
	switch ph.state {
	case StateAlive:
		if ph.misses >= d.suspectAfter {
			ph.state = StateSuspect
			ph.suspectAt = time.Now()
			transition = StateSuspect
		}
	case StateSuspect:
		if time.Since(ph.suspectAt) >= d.downAfter {
			ph.state = StateDown
			transition = StateDown
		}
	}
	d.mu.Unlock()
	if transition >= 0 {
		d.setGauge(id, transition)
		fmt.Fprintf(d.logw, "cluster[%s]: peer %s -> %s (%d consecutive misses)\n",
			d.self, id, transition, misses)
	}
}
