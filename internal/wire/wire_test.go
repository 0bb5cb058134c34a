package wire

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/acis-lab/larpredictor/internal/durable"
)

func testSamples(n int) []Sample {
	out := make([]Sample, n)
	for i := range out {
		out[i] = Sample{
			Stream: fmt.Sprintf("vm%d/cpu", i%4),
			TS:     int64(i) - 2, // exercise negative zigzag
			Value:  float64(i) * 1.5,
			Seq:    uint64(100 + i),
		}
	}
	return out
}

func TestCodecBatchRoundTrip(t *testing.T) {
	var enc Encoder
	var dec BatchDecoder
	want := testSamples(9)
	frame := enc.AppendBatch(nil, 42, "src-a", want)

	payload, rest, ok := durable.SplitRecord(frame, DefaultMaxFrame)
	if !ok || len(rest) != 0 {
		t.Fatalf("SplitRecord ok=%v rest=%d", ok, len(rest))
	}
	if payload[0] != FrameBatch {
		t.Fatalf("frame type = %#x", payload[0])
	}
	id, source, got, err := dec.Decode(payload[1:])
	if err != nil {
		t.Fatal(err)
	}
	if id != 42 || source != "src-a" || len(got) != len(want) {
		t.Fatalf("decoded id=%d source=%q n=%d", id, source, len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestCodecAckRoundTrip(t *testing.T) {
	var enc Encoder
	in := Ack{BatchID: 7, Status: StatusBacklog, Accepted: 3, Deduped: 2, Msg: "busy"}
	frame := enc.AppendAck(nil, in)
	payload, _, ok := durable.SplitRecord(frame, DefaultMaxFrame)
	if !ok || payload[0] != FrameAck {
		t.Fatalf("bad ack frame")
	}
	out, err := ParseAck(payload[1:])
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("got %+v want %+v", out, in)
	}
}

func TestDecodeRejectsTruncationAndTrailer(t *testing.T) {
	var enc Encoder
	var dec BatchDecoder
	frame := enc.AppendBatch(nil, 1, "s", testSamples(4))
	payload, _, _ := durable.SplitRecord(frame, DefaultMaxFrame)
	body := payload[1:]
	for cut := 0; cut < len(body); cut++ {
		if _, _, _, err := dec.Decode(body[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		} else if !errors.Is(err, ErrProtocol) {
			t.Fatalf("truncation at %d: %v not ErrProtocol", cut, err)
		}
	}
	if _, _, _, err := dec.Decode(append(append([]byte(nil), body...), 0xff)); err == nil {
		t.Fatal("trailing byte decoded")
	}
}

// startServer runs a wire.Server over a real listener and returns its addr.
func startServer(t *testing.T, cfg ServerConfig) (*Server, string) {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

func TestServerEndToEnd(t *testing.T) {
	var total atomic.Int64
	_, addr := startServer(t, ServerConfig{
		Ingest: func(source string, samples []Sample) Ack {
			total.Add(int64(len(samples)))
			return Ack{Status: StatusOK, Accepted: len(samples)}
		},
	})
	ctx := context.Background()
	conn, err := Dial(ctx, addr, ConnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if conn.Version() != MaxVersion {
		t.Fatalf("version %d", conn.Version())
	}
	for i := 0; i < 5; i++ {
		ack, err := conn.Ingest(ctx, "src", testSamples(10))
		if err != nil {
			t.Fatal(err)
		}
		if ack.Status != StatusOK || ack.Accepted != 10 {
			t.Fatalf("ack %+v", ack)
		}
	}
	if got := total.Load(); got != 50 {
		t.Fatalf("ingested %d samples, want 50", got)
	}
}

func TestServerPipelinedAcksMatchByID(t *testing.T) {
	_, addr := startServer(t, ServerConfig{
		Ingest: func(source string, samples []Sample) Ack {
			// Echo the first seq back through Accepted so each ack is
			// distinguishable per batch.
			return Ack{Status: StatusOK, Accepted: int(samples[0].Seq)}
		},
	})
	ctx := context.Background()
	conn, err := Dial(ctx, addr, ConnConfig{Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const n = 64
	pendings := make([]*Pending, n)
	for i := 0; i < n; i++ {
		p, err := conn.Send(ctx, "src", []Sample{{Stream: "s", Seq: uint64(i + 1)}})
		if err != nil {
			t.Fatal(err)
		}
		pendings[i] = p
	}
	for i, p := range pendings {
		ack, err := p.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if ack.Status != StatusOK || ack.Accepted != i+1 {
			t.Fatalf("batch %d ack %+v", i, ack)
		}
	}
}

func TestServerDrainingShortCircuits(t *testing.T) {
	called := false
	_, addr := startServer(t, ServerConfig{
		Ingest:   func(string, []Sample) Ack { called = true; return Ack{Status: StatusOK} },
		Draining: func() bool { return true },
	})
	ctx := context.Background()
	conn, err := Dial(ctx, addr, ConnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ack, err := conn.Ingest(ctx, "src", testSamples(1))
	if err != nil {
		t.Fatal(err)
	}
	if ack.Status != StatusDraining {
		t.Fatalf("ack %+v", ack)
	}
	if called {
		t.Fatal("Ingest called while draining")
	}
}

// rawHandshake dials and handshakes by hand so tests can misbehave.
func rawHandshake(t *testing.T, addr string, offer uint16) (net.Conn, uint16) {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	if err := writeHandshake(nc, offer); err != nil {
		t.Fatal(err)
	}
	got, err := readHandshake(nc)
	if err != nil {
		t.Fatal(err)
	}
	return nc, got
}

func TestHandshakeVersionSkew(t *testing.T) {
	_, addr := startServer(t, ServerConfig{
		Ingest: func(string, []Sample) Ack { return Ack{Status: StatusOK} },
	})
	// A newer client is clamped to the server's max, not rejected.
	nc, got := rawHandshake(t, addr, MaxVersion+7)
	if got != MaxVersion {
		t.Fatalf("offer %d negotiated %d, want %d", MaxVersion+7, got, MaxVersion)
	}
	// The clamped connection still works.
	var enc Encoder
	if _, err := nc.Write(enc.AppendBatch(nil, 1, "s", testSamples(1))); err != nil {
		t.Fatal(err)
	}
	payload, _, err := durable.ReadRecord(bufio.NewReader(nc), nil, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if payload[0] != FrameAck {
		t.Fatalf("frame %#x", payload[0])
	}

	// An offer below MinVersion is answered with version 0, then closed.
	nc2, got2 := rawHandshake(t, addr, 0)
	if got2 != 0 {
		t.Fatalf("offer 0 negotiated %d, want reject", got2)
	}
	if _, err := nc2.Read(make([]byte, 1)); err == nil {
		t.Fatal("rejected connection stayed open")
	}
}

func TestBadMagicClosesConnection(t *testing.T) {
	_, addr := startServer(t, ServerConfig{
		Ingest: func(string, []Sample) Ack { return Ack{Status: StatusOK} },
	})
	nc, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Write([]byte("HTTP/1.1 GET /v1/ingest")); err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Read(make([]byte, 1)); err == nil {
		t.Fatal("bad-magic connection stayed open")
	}
}

// TestCorruptFrameNeverAcked is the mis-ack guard: after a checksum-corrupt
// frame the server must close without acking it — acking would claim an
// outcome for a batch ID it cannot trust.
func TestCorruptFrameNeverAcked(t *testing.T) {
	var calls atomic.Int64
	_, addr := startServer(t, ServerConfig{
		Ingest: func(string, []Sample) Ack {
			calls.Add(1)
			return Ack{Status: StatusOK, Accepted: 1}
		},
	})
	nc, got := rawHandshake(t, addr, MaxVersion)
	if got != MaxVersion {
		t.Fatal("handshake failed")
	}
	var enc Encoder
	good := enc.AppendBatch(nil, 1, "s", testSamples(1))
	bad := enc.AppendBatch(nil, 2, "s", testSamples(1))
	bad[len(bad)-1] ^= 0xff // break the checksum
	if _, err := nc.Write(append(append([]byte(nil), good...), bad...)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	var acks []Ack
	var buf []byte
	var payload []byte
	var rerr error
	for {
		payload, buf, rerr = durable.ReadRecord(br, buf, DefaultMaxFrame)
		if rerr != nil {
			break // connection closed (possibly after an Error frame)
		}
		switch payload[0] {
		case FrameAck:
			a, err := ParseAck(payload[1:])
			if err != nil {
				t.Fatal(err)
			}
			acks = append(acks, a)
		case FrameError:
			if !strings.Contains(string(payload[1:]), "record") {
				t.Fatalf("error frame %q does not mention the record failure", payload[1:])
			}
		default:
			t.Fatalf("unexpected frame %#x", payload[0])
		}
	}
	if len(acks) != 1 || acks[0].BatchID != 1 {
		t.Fatalf("acks %+v: exactly batch 1 must be acked, batch 2 never", acks)
	}
	if calls.Load() != 1 {
		t.Fatalf("ingest called %d times, want 1", calls.Load())
	}
}

// TestOversizedFrameRejected: a length field beyond the cap is treated as
// corruption, never an allocation.
func TestOversizedFrameRejected(t *testing.T) {
	_, addr := startServer(t, ServerConfig{
		Ingest:        func(string, []Sample) Ack { return Ack{Status: StatusOK} },
		MaxFrameBytes: 1 << 10,
	})
	nc, _ := rawHandshake(t, addr, MaxVersion)
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], 1<<30)
	if _, err := nc.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		nc.SetReadDeadline(deadline)
		if _, err := nc.Read(make([]byte, 256)); err != nil {
			if errors.Is(err, io.EOF) {
				return // server closed, as required
			}
			t.Fatalf("read: %v", err)
		}
	}
}

// TestConnResendAfterClose: batches unacked when the connection dies resolve
// as ErrConnClosed so the caller knows to resend.
func TestConnResendAfterClose(t *testing.T) {
	block := make(chan struct{})
	_, addr := startServer(t, ServerConfig{
		Ingest: func(string, []Sample) Ack {
			<-block
			return Ack{Status: StatusOK}
		},
	})
	ctx := context.Background()
	conn, err := Dial(ctx, addr, ConnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := conn.Send(ctx, "src", testSamples(1))
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if _, err := p.Wait(ctx); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("Wait after close: %v, want ErrConnClosed", err)
	}
	close(block)
}

// TestServerDecodeZeroAlloc locks the acceptance criterion: the steady-state
// server decode path (record read + batch decode) allocates nothing once the
// intern table and buffers are warm.
func TestServerDecodeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	var enc Encoder
	var stream []byte
	const frames = 16
	for i := 0; i < frames; i++ {
		stream = enc.AppendBatch(stream, uint64(i+1), "src", testSamples(32))
	}
	var dec BatchDecoder
	var buf []byte
	rd := bytes.NewReader(nil)
	br := bufio.NewReaderSize(nil, 64<<10)
	decodeAll := func() {
		rd.Reset(stream)
		br.Reset(rd)
		for {
			payload, nbuf, err := durable.ReadRecord(br, buf, DefaultMaxFrame)
			buf = nbuf
			if errors.Is(err, io.EOF) {
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := dec.Decode(payload[1:]); err != nil {
				t.Fatal(err)
			}
		}
	}
	decodeAll() // warm the intern table and buffers
	if avg := testing.AllocsPerRun(50, decodeAll); avg != 0 {
		t.Fatalf("server decode path allocates %.1f allocs per pass, want 0", avg)
	}
}
