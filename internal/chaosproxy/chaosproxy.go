// Package chaosproxy is a deterministic fault-injecting TCP proxy for
// resilience tests. It sits between a client and a backend and, per
// connection, rolls a seeded RNG to decide whether to add latency, reset
// the connection mid-stream, deliver only a partial write before cutting
// the link, or blackhole traffic entirely (accept, then read and discard
// without forwarding).
//
// Determinism is the point: each accepted connection derives its own RNG
// from Config.Seed and the connection's index, so a failing soak run
// replays byte-for-byte identically from the same seed — chaos you can
// bisect.
package chaosproxy

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Config shapes a Proxy. Probabilities are per-connection and evaluated in
// order: blackhole, reset, partial; at most one connection fault applies
// (latency stacks with any of them). All-zero probabilities make a plain
// transparent proxy.
type Config struct {
	// Target is the backend address ("host:port"). It may be changed later
	// with SetTarget — soak tests retarget the proxy at a restarted daemon.
	Target string
	// Seed drives every random decision. Same seed, same connection order,
	// same faults.
	Seed int64

	// LatencyProb adds a uniform [LatencyMin, LatencyMax] delay before the
	// connection starts proxying.
	LatencyProb float64
	LatencyMin  time.Duration
	LatencyMax  time.Duration

	// ResetProb kills the connection with an RST (SetLinger(0)) after
	// forwarding a random prefix of the client's bytes.
	ResetProb float64

	// PartialProb forwards only part of the client's first write window and
	// then closes — the torn-request case.
	PartialProb float64

	// BlackholeProb accepts the connection and discards everything for
	// BlackholeDur (default 2s) without contacting the backend — the
	// hung-network case clients must deadline their way out of.
	BlackholeProb float64
	BlackholeDur  time.Duration

	// ThrottleProb relays the connection at ThrottleBytesPerSec (default
	// 4096) in the client→backend direction — the slow-drip link that makes
	// requests crawl instead of fail, exercising deadlines and replication
	// lag rather than retries.
	ThrottleProb        float64
	ThrottleBytesPerSec int
}

// Proxy is a running chaos proxy. Close stops the listener and every live
// connection.
type Proxy struct {
	cfg Config
	ln  net.Listener

	mu     sync.Mutex
	target string
	conns  map[net.Conn]struct{}
	closed bool

	connIdx atomic.Uint64
	faults  atomic.Uint64 // connections that got any fault

	wg sync.WaitGroup
}

// Start listens on addr (use "127.0.0.1:0" in tests) and begins accepting.
func Start(addr string, cfg Config) (*Proxy, error) {
	if cfg.Target == "" {
		return nil, errors.New("chaosproxy: Config.Target is required")
	}
	if cfg.BlackholeDur <= 0 {
		cfg.BlackholeDur = 2 * time.Second
	}
	if cfg.ThrottleBytesPerSec <= 0 {
		cfg.ThrottleBytesPerSec = 4096
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	p := &Proxy{cfg: cfg, ln: ln, target: cfg.Target, conns: map[net.Conn]struct{}{}}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

// Addr is the proxy's listen address for clients to dial.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// SetTarget repoints the proxy; existing connections keep their old
// backend, new ones dial the new target.
func (p *Proxy) SetTarget(target string) {
	p.mu.Lock()
	p.target = target
	p.mu.Unlock()
}

// Close stops accepting, severs every live connection, and waits for the
// connection goroutines to finish.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return nil
	}
	p.closed = true
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	err := p.ln.Close()
	p.wg.Wait()
	return err
}

func (p *Proxy) accept() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		idx := p.connIdx.Add(1)
		// Each connection's RNG depends only on (seed, index): the fault
		// schedule is a pure function of the seed and arrival order.
		rng := rand.New(rand.NewSource(p.cfg.Seed + int64(idx)*0x9E3779B9))
		if !p.track(conn) {
			conn.Close()
			return
		}
		p.wg.Add(1)
		go p.serve(conn, rng)
	}
}

func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *Proxy) serve(client net.Conn, rng *rand.Rand) {
	defer p.wg.Done()
	defer p.untrack(client)
	defer client.Close()

	if p.cfg.LatencyProb > 0 && rng.Float64() < p.cfg.LatencyProb {
		p.faults.Add(1)
		span := p.cfg.LatencyMax - p.cfg.LatencyMin
		d := p.cfg.LatencyMin
		if span > 0 {
			d += time.Duration(rng.Int63n(int64(span)))
		}
		time.Sleep(d)
	}

	switch roll := rng.Float64(); {
	case roll < p.cfg.BlackholeProb:
		p.faults.Add(1)
		p.blackhole(client)
		return
	case roll < p.cfg.BlackholeProb+p.cfg.ResetProb:
		p.faults.Add(1)
		p.relayThenCut(client, rng, true)
		return
	case roll < p.cfg.BlackholeProb+p.cfg.ResetProb+p.cfg.PartialProb:
		p.faults.Add(1)
		p.relayThenCut(client, rng, false)
		return
	case roll < p.cfg.BlackholeProb+p.cfg.ResetProb+p.cfg.PartialProb+p.cfg.ThrottleProb:
		p.faults.Add(1)
		p.relayThrottled(client)
		return
	}

	p.relay(client)
}

// blackhole reads and discards the client's bytes for the configured
// window, never touching the backend, then drops the connection.
func (p *Proxy) blackhole(client net.Conn) {
	client.SetDeadline(time.Now().Add(p.cfg.BlackholeDur))
	io.Copy(io.Discard, client)
}

// relay is the transparent path: dial the backend and pump both ways.
func (p *Proxy) relay(client net.Conn) {
	p.mu.Lock()
	target := p.target
	p.mu.Unlock()
	backend, err := net.DialTimeout("tcp", target, 5*time.Second)
	if err != nil {
		return // backend down: client sees the close, retries
	}
	if !p.track(backend) {
		backend.Close()
		return
	}
	defer p.untrack(backend)
	defer backend.Close()
	done := make(chan struct{}, 2)
	go func() { io.Copy(backend, client); backend.(*net.TCPConn).CloseWrite(); done <- struct{}{} }()
	go func() { io.Copy(client, backend); client.(*net.TCPConn).CloseWrite(); done <- struct{}{} }()
	<-done
	<-done
}

// relayThrottled is the slow-drip path: a full bidirectional relay, but the
// client→backend direction trickles at ThrottleBytesPerSec. Responses flow
// back unthrottled, so the caller sees its request crawl while the
// connection itself stays healthy — the fault deadlines must catch.
func (p *Proxy) relayThrottled(client net.Conn) {
	p.mu.Lock()
	target := p.target
	p.mu.Unlock()
	backend, err := net.DialTimeout("tcp", target, 5*time.Second)
	if err != nil {
		return
	}
	if !p.track(backend) {
		backend.Close()
		return
	}
	defer p.untrack(backend)
	defer backend.Close()
	done := make(chan struct{}, 2)
	go func() {
		p.throttledCopy(backend, client)
		backend.(*net.TCPConn).CloseWrite()
		done <- struct{}{}
	}()
	go func() { io.Copy(client, backend); client.(*net.TCPConn).CloseWrite(); done <- struct{}{} }()
	<-done
	<-done
}

// throttledCopy moves bytes in rate/10 chunks on a 100ms cadence. Close
// stays responsive: both conns are tracked, so Close severs them and the
// blocked Read returns — at worst one sleep interval late.
func (p *Proxy) throttledCopy(dst, src net.Conn) {
	chunk := p.cfg.ThrottleBytesPerSec / 10
	if chunk < 1 {
		chunk = 1
	}
	buf := make([]byte, chunk)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// relayThenCut forwards a bounded random prefix of the client's bytes to
// the backend and then severs the connection — with an RST when reset is
// true (SetLinger(0) discards the close handshake), or a plain close for
// the partial-write case.
func (p *Proxy) relayThenCut(client net.Conn, rng *rand.Rand, reset bool) {
	p.mu.Lock()
	target := p.target
	p.mu.Unlock()
	backend, err := net.DialTimeout("tcp", target, 5*time.Second)
	if err != nil {
		return
	}
	if !p.track(backend) {
		backend.Close()
		return
	}
	defer p.untrack(backend)
	defer backend.Close()
	// Forward at most the first 1..256 bytes the client sends, then cut:
	// the backend sees a torn request. One bounded read (with a safety
	// deadline) rather than CopyN, which would stall waiting for bytes a
	// short request never sends.
	limit := 1 + rng.Intn(256)
	client.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, limit)
	if n, _ := client.Read(buf); n > 0 {
		backend.Write(buf[:n])
	}
	if reset {
		if tc, ok := client.(*net.TCPConn); ok {
			tc.SetLinger(0)
		}
	}
}
