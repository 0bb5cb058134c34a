package chaosproxy

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// Faults reports how many accepted connections received an injected fault.
func (p *Proxy) Faults() uint64 { return p.faults.Load() }

// startEcho returns a backend that answers every HTTP request with its own
// path, plus its address.
func startEcho(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "echo:%s", r.URL.Path)
	}))
	t.Cleanup(ts.Close)
	return ts
}

func targetOf(ts *httptest.Server) string { return strings.TrimPrefix(ts.URL, "http://") }

// TestTransparentRelay: with all probabilities zero the proxy is invisible.
func TestTransparentRelay(t *testing.T) {
	ts := startEcho(t)
	p, err := Start("127.0.0.1:0", Config{Target: targetOf(ts), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	for i := 0; i < 5; i++ {
		resp, err := http.Get("http://" + p.Addr() + fmt.Sprintf("/r%d", i))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if want := fmt.Sprintf("echo:/r%d", i); string(body) != want {
			t.Fatalf("body = %q, want %q", body, want)
		}
	}
	if p.Faults() != 0 {
		t.Errorf("transparent proxy injected %d faults", p.Faults())
	}
}

// TestDeterministicFaultSchedule: the same seed yields the same per-
// connection fault pattern; a different seed yields a different one
// (checked over enough connections that collision odds are negligible).
func TestDeterministicFaultSchedule(t *testing.T) {
	ts := startEcho(t)
	pattern := func(seed int64) string {
		p, err := Start("127.0.0.1:0", Config{Target: targetOf(ts), Seed: seed, ResetProb: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		var b strings.Builder
		client := &http.Client{Timeout: 2 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
		for i := 0; i < 20; i++ {
			resp, err := client.Get("http://" + p.Addr() + "/x")
			if err != nil {
				b.WriteByte('F')
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			b.WriteByte('.')
		}
		return b.String()
	}
	a1, a2, b1 := pattern(7), pattern(7), pattern(8)
	if a1 != a2 {
		t.Errorf("same seed diverged: %q vs %q", a1, a2)
	}
	if a1 == b1 {
		t.Errorf("different seeds produced identical schedule %q", a1)
	}
	if !strings.Contains(a1, "F") || !strings.Contains(a1, ".") {
		t.Errorf("schedule %q should mix faults and passes at p=0.5", a1)
	}
}

// TestBlackholeTimesOutClient: a blackholed connection never reaches the
// backend; a deadlined client escapes.
func TestBlackholeTimesOutClient(t *testing.T) {
	backendHit := make(chan struct{}, 16)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		backendHit <- struct{}{}
	}))
	defer ts.Close()
	p, err := Start("127.0.0.1:0", Config{
		Target: targetOf(ts), Seed: 3, BlackholeProb: 1, BlackholeDur: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	client := &http.Client{Timeout: 100 * time.Millisecond}
	start := time.Now()
	_, gerr := client.Get("http://" + p.Addr() + "/x")
	if gerr == nil {
		t.Fatal("blackholed request succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("client deadline did not bound the blackhole: %v", elapsed)
	}
	select {
	case <-backendHit:
		t.Error("blackholed connection reached the backend")
	default:
	}
}

// TestSetTargetRetargetsNewConnections: soak tests restart the daemon on a
// new port and repoint the proxy.
func TestSetTargetRetargetsNewConnections(t *testing.T) {
	a := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "A") }))
	defer a.Close()
	b := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "B") }))
	defer b.Close()

	p, err := Start("127.0.0.1:0", Config{Target: targetOf(a), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	get := func() string {
		resp, err := client.Get("http://" + p.Addr() + "/")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}
	if got := get(); got != "A" {
		t.Fatalf("pre-retarget body = %q", got)
	}
	p.SetTarget(targetOf(b))
	if got := get(); got != "B" {
		t.Fatalf("post-retarget body = %q", got)
	}
}

// TestCloseSeversLiveConnections: Close unblocks in-flight connections and
// returns promptly.
func TestCloseSeversLiveConnections(t *testing.T) {
	ts := startEcho(t)
	p, err := Start("127.0.0.1:0", Config{
		Target: targetOf(ts), Seed: 1, BlackholeProb: 1, BlackholeDur: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("stuck"))

	done := make(chan error, 1)
	go func() { done <- p.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a live blackholed connection")
	}
}

// TestThrottleDeterministicSchedule: the slow-drip fault honors the same
// seeded-schedule contract as the others — which connections crawl is a
// pure function of (seed, arrival order) — and a throttled connection still
// completes, just slowly. Connections classify by elapsed time: pushing
// ~5 chunks through a 2000 B/s drip takes ≥400ms, while the transparent
// path finishes in a few milliseconds.
func TestThrottleDeterministicSchedule(t *testing.T) {
	payload := strings.Repeat("x", 1000)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		fmt.Fprint(w, "ok")
	}))
	t.Cleanup(ts.Close)

	pattern := func(seed int64) string {
		p, err := Start("127.0.0.1:0", Config{
			Target:              targetOf(ts),
			Seed:                seed,
			ThrottleProb:        0.5,
			ThrottleBytesPerSec: 2000,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		var b strings.Builder
		client := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
		for i := 0; i < 12; i++ {
			start := time.Now()
			resp, err := client.Post("http://"+p.Addr()+"/x", "text/plain", strings.NewReader(payload))
			if err != nil {
				t.Fatalf("throttled connection must still complete: %v", err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if time.Since(start) >= 200*time.Millisecond {
				b.WriteByte('T') // throttled
			} else {
				b.WriteByte('.')
			}
		}
		return b.String()
	}
	a1, a2, b1 := pattern(7), pattern(7), pattern(8)
	if a1 != a2 {
		t.Errorf("same seed diverged: %q vs %q", a1, a2)
	}
	if a1 == b1 {
		t.Errorf("different seeds produced identical schedule %q", a1)
	}
	if !strings.Contains(a1, "T") || !strings.Contains(a1, ".") {
		t.Errorf("schedule %q should mix throttled and clean connections at p=0.5", a1)
	}
}
