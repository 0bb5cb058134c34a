package server

import "net/http"

// Every /v1 JSON error shares one envelope:
//
//	{"error": {"code": "backlog", "message": "ingest backlog"}}
//
// Code is the stable machine-readable contract — clients branch on it;
// Message is human-oriented and free to change. A 503's code is its cause:
// draining, shed, timeout or forward_failed.
const (
	// CodeBadRequest — malformed JSON, unknown fields, or an unparsable
	// query parameter.
	CodeBadRequest = "bad_request"
	// CodeEmptyStream — a request path or sample with an empty stream ID.
	CodeEmptyStream = "empty_stream"
	// CodeNoSamples — an ingest request carrying nothing to ingest.
	CodeNoSamples = "no_samples"
	// CodeBadCursor — an unusable pagination cursor.
	CodeBadCursor = "bad_cursor"
	// CodeBadLimit — a non-positive or unparsable limit.
	CodeBadLimit = "bad_limit"
	// CodeBadRange — an unusable from/to/step history range.
	CodeBadRange = "bad_range"
	// CodeTooManyStreams — a bulk request naming more streams than the
	// server's cap.
	CodeTooManyStreams = "too_many_streams"
	// CodeUnknownStream — the stream has never been seen by this node.
	CodeUnknownStream = "unknown_stream"
	// CodeBodyTooLarge — the request body exceeded the configured cap (413).
	CodeBodyTooLarge = "body_too_large"
	// CodeBacklog — Reject-policy ingest backpressure (429); retry after
	// the Retry-After hint.
	CodeBacklog = "backlog"
	// CodeDraining — the server is shutting down or the engine is closed
	// (503); retry against a healthy replica.
	CodeDraining = "draining"
	// CodeShed — admission control rejected the request before any work
	// (503); retry after backoff.
	CodeShed = "shed"
	// CodeTimeout — the server-side deadline fired mid-request (503); the
	// work may still complete, so only keyed retries are safe.
	CodeTimeout = "timeout"
	// CodeForwardFailed — a cluster forward to the stream's owner failed
	// (503); the whole-batch retry is safe under keys.
	CodeForwardFailed = "forward_failed"
	// CodeInternal — an unclassified server-side failure.
	CodeInternal = "internal"
)

// ErrorBody is the machine-readable error inside the envelope.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorEnvelope is the uniform /v1 error response document.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// writeError renders one enveloped error.
func writeError(w http.ResponseWriter, status int, code, message string) {
	writeJSON(w, status, ErrorEnvelope{Error: ErrorBody{Code: code, Message: message}})
}
