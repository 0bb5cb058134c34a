package cluster

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// startPeer serves /v1/cluster/heartbeat, answering 200 while up is set and
// 503 otherwise — a node that exists but is draining or wedged.
func startPeer(t *testing.T) (addr string, up *atomic.Bool) {
	t.Helper()
	up = &atomic.Bool{}
	up.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !up.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, `{"node":"peer"}`)
	}))
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://"), up
}

func waitState(t *testing.T, d *detector, peer string, want PeerState, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if d.stateOf(peer) == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("peer %s never reached %v (stuck at %v)", peer, want, d.stateOf(peer))
}

func TestDetectorLifecycle(t *testing.T) {
	addr, up := startPeer(t)
	d := newDetector("self", map[string]string{"p": addr},
		10*time.Millisecond, 2, 50*time.Millisecond, nil, io.Discard)
	d.start()
	defer d.close()

	// Healthy peer stays alive through several probe rounds.
	time.Sleep(60 * time.Millisecond)
	if got := d.stateOf("p"); got != StateAlive {
		t.Fatalf("healthy peer state = %v, want alive", got)
	}
	if !d.alive("p") || !d.alive("self") {
		t.Fatal("healthy peer and self must both be routable")
	}

	// Failing probes walk alive -> suspect -> down; suspect still routes.
	up.Store(false)
	waitState(t, d, "p", StateSuspect, time.Second)
	if !d.alive("p") {
		t.Fatal("suspect peer must still be routable (benefit of the doubt)")
	}
	waitState(t, d, "p", StateDown, time.Second)
	if d.alive("p") {
		t.Fatal("down peer must be excluded from routing")
	}

	// One successful probe restores alive, and the peer routes again.
	up.Store(true)
	waitState(t, d, "p", StateAlive, time.Second)
	if !d.alive("p") {
		t.Fatal("rejoined peer must be routable again")
	}
}

func TestDetectorUnknownPeerIsDown(t *testing.T) {
	d := newDetector("self", map[string]string{}, time.Second, 3, time.Second, nil, io.Discard)
	if d.stateOf("ghost") != StateDown {
		t.Fatal("unknown member must read as down")
	}
	if d.alive("ghost") {
		t.Fatal("unknown member must not be routable")
	}
}
