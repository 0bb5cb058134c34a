// Package wire implements predictd's persistent-connection binary ingest
// protocol: the fast path past HTTP/JSON decode for collectors that push at
// engine speed.
//
// A connection opens with a fixed handshake — the client sends the 8-byte
// protocol magic plus the highest version it speaks (uint16 little-endian);
// the server answers with the same magic plus the chosen version,
// min(client, server). Version 0 in the reply means the server rejects the
// connection (unknown magic is simply closed). After the handshake every
// message in both directions is one CRC-framed record in exactly the
// internal/durable batch-WAL record format:
//
//	[uint32 LE length][payload][uint32 LE crc32-IEEE(length+payload)]
//
// The first payload byte is the frame type. Clients send Batch frames (one
// ingest batch, single source, client-assigned (source, seq) idempotency keys
// per sample); servers answer each with an Ack frame carrying the batch ID,
// a status, and accepted/deduped counts — the same accounting the HTTP
// response body carries. Acks are pipelined: a client may keep a window of
// unacknowledged batches in flight and match acks back by batch ID. Either
// side sends an Error frame before closing when the peer violates the
// protocol; a frame that fails its checksum cannot be trusted enough even to
// extract a batch ID, so the receiver never acks it — it closes, and the
// sender treats every unacked batch as unknown-outcome and resends (safe
// because the keys dedup).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Magic opens the handshake in both directions. The trailing '1' names the
// handshake format, not the protocol version, which is negotiated explicitly.
var Magic = [8]byte{'L', 'A', 'R', 'P', 'W', 'I', 'R', '1'}

// Protocol versions this build speaks. A server offered a newer version
// clamps to MaxVersion; one offered an older version below MinVersion
// rejects with version 0.
const (
	MinVersion uint16 = 1
	MaxVersion uint16 = 1
)

// handshakeLen is the byte length of each handshake half: magic + uint16.
const handshakeLen = len(Magic) + 2

// Frame types (first payload byte of every record).
const (
	FrameBatch byte = 0x01 // client → server: one ingest batch
	FrameAck   byte = 0x02 // server → client: outcome for one batch
	FrameError byte = 0x03 // either direction: terminal protocol error, then close
)

// DefaultMaxFrame caps a frame payload, mirroring the HTTP ingest body limit.
// Both sides enforce it; a length above the cap is a protocol error, not an
// allocation request.
const DefaultMaxFrame = 1 << 20

// Status is the per-batch ack outcome. The mapping mirrors the HTTP ingest
// status codes so a client can share one retry policy across transports.
type Status uint8

const (
	// StatusOK: the batch is accepted (and, on a WAL-mode server, durable).
	StatusOK Status = 0
	// StatusBacklog: engine backpressure, the HTTP 429. Retry after a pause;
	// the batch was not applied.
	StatusBacklog Status = 1
	// StatusDraining: the server is shutting down or closed, the HTTP 503 +
	// drain. Retry against another endpoint.
	StatusDraining Status = 2
	// StatusRetry: a transient server-side failure (cluster forward failed,
	// internal error), the HTTP 5xx. Safe to resend: keys dedup anything
	// that did land.
	StatusRetry Status = 3
	// StatusInvalid: the batch was decoded but is unacceptable (e.g. over
	// the sample cap). Non-retryable, the HTTP 4xx.
	StatusInvalid Status = 4
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusBacklog:
		return "backlog"
	case StatusDraining:
		return "draining"
	case StatusRetry:
		return "retry"
	case StatusInvalid:
		return "invalid"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Sample is one keyed observation on the wire: the engine sample plus the
// (source, seq) idempotency key half that, with the batch's source, makes
// retries exactly-once on a WAL-mode server.
type Sample struct {
	Stream string
	TS     int64
	Value  float64
	Seq    uint64
}

// Ack is the server's outcome for one batch, matched to its Batch frame by
// ID. Accepted and Deduped carry the same accounting as the HTTP response
// body; Msg is human-readable detail for non-OK statuses.
type Ack struct {
	BatchID  uint64
	Status   Status
	Accepted int
	Deduped  int
	Msg      string
}

// ErrProtocol marks a peer protocol violation: bad magic, an unknown frame
// type, an undecodable payload. The connection is unusable after it.
var ErrProtocol = errors.New("wire: protocol error")

// writeHandshake emits one handshake half (magic + version).
func writeHandshake(w io.Writer, version uint16) error {
	var buf [10]byte
	copy(buf[:], Magic[:])
	binary.LittleEndian.PutUint16(buf[8:], version)
	_, err := w.Write(buf[:handshakeLen])
	return err
}

// readHandshake consumes one handshake half and returns the peer's version.
func readHandshake(r io.Reader) (uint16, error) {
	var buf [10]byte
	if _, err := io.ReadFull(r, buf[:handshakeLen]); err != nil {
		return 0, fmt.Errorf("wire: handshake read: %w", err)
	}
	if [8]byte(buf[:8]) != Magic {
		return 0, fmt.Errorf("%w: bad magic %q", ErrProtocol, buf[:8])
	}
	return binary.LittleEndian.Uint16(buf[8:]), nil
}

// negotiate picks the server-side version for a client offer: min(offer,
// MaxVersion), or 0 (reject) when the offer predates MinVersion.
func negotiate(offer uint16) uint16 {
	if offer < MinVersion {
		return 0
	}
	if offer > MaxVersion {
		return MaxVersion
	}
	return offer
}
