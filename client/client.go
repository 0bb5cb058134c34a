// Package client is the resilient Go client for predictd. It wraps the
// HTTP/JSON API with the retry discipline a production caller needs:
// exponential backoff with full jitter, Retry-After honored as a floor on
// 429/503, a per-attempt request deadline, and a half-open circuit breaker
// that sheds calls while the daemon is down instead of hammering it.
//
// Retried ingests are safe to repeat: the Ingester assigns each sample a
// client-side (source, seq) idempotency key that stays fixed across
// retries, and a predictd running with -durability=wal applies each key
// exactly once. That makes every retryable failure — including a 503 with
// code "timeout", where the first attempt may still have committed
// server-side — safe to resend blindly.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/acis-lab/larpredictor/internal/obs"
)

// Reason labels for the retries counter. A 503 is labelled by the cause its
// error envelope names (see reasonForCode).
const (
	reasonNetwork     = "network"
	reasonThrottle    = "throttle"
	reasonUnavailable = "unavailable"
	reasonServer      = "server"
)

// reasonForCode maps a 503's error-envelope code to its retry reason label.
var reasonForCode = map[string]string{
	"draining":       "drain",
	"shed":           "shed",
	"timeout":        "timeout",
	"forward_failed": "forward",
}

// routeHeader mirrors the server's header name without importing the server
// package: the wire contract is the header name, not the Go identifier.
const routeHeader = "X-Predictd-Route"

// ErrBreakerOpen is returned without issuing a request while the circuit
// breaker is open. The caller may retry later; the breaker half-opens after
// its cooldown and lets one probe through.
var ErrBreakerOpen = errors.New("predictclient: circuit breaker open")

// StatusError is a terminal (non-retryable) HTTP failure, or the last
// retryable failure once attempts are exhausted.
type StatusError struct {
	Code   int
	Reason string // the 503 cause its envelope code names: drain, shed, timeout or forward
	// ErrCode is the machine-readable code from the server's unified error
	// envelope ({"error":{"code":...}}), when the body carried one. Branch
	// on it rather than on Body or Reason.
	ErrCode string
	Body    string
}

func (e *StatusError) Error() string {
	if e.Reason != "" {
		return fmt.Sprintf("predictclient: HTTP %d (reason %s): %s", e.Code, e.Reason, e.Body)
	}
	return fmt.Sprintf("predictclient: HTTP %d: %s", e.Code, e.Body)
}

// statusError builds a StatusError from a response, extracting the
// envelope's machine code when the body carries one.
func statusError(resp *http.Response, raw []byte) *StatusError {
	se := &StatusError{Code: resp.StatusCode, Body: string(raw)}
	var env struct {
		Error *ErrorBody `json:"error"`
	}
	if json.Unmarshal(raw, &env) == nil && env.Error != nil {
		se.ErrCode = env.Error.Code
		if resp.StatusCode == http.StatusServiceUnavailable {
			se.Reason = reasonForCode[se.ErrCode]
		}
	}
	return se
}

// Config shapes a Client. The zero value of every field has a sensible
// default; only BaseURL (or Endpoints) is required.
type Config struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8100".
	BaseURL string
	// Endpoints lists additional daemon roots for a clustered deployment.
	// The client sticks to one endpoint while it answers, rotates to the
	// next on transport failures and 5xx responses, and honors the
	// X-Predictd-Route hint a node sends when another node owns the
	// streams being written — so steady-state traffic converges on the
	// owner without a load balancer.
	Endpoints []string
	// HTTPClient overrides the transport; per-attempt deadlines come from
	// RequestTimeout, so the default client carries no global timeout.
	HTTPClient *http.Client
	// Source is the client identity half of every idempotency key. Leave
	// empty only for unkeyed (at-least-once) ingest.
	Source string
	// Headers are added to every request verbatim. predictd's cluster
	// layer marks inter-node traffic (forwarded and replicated batches)
	// this way.
	Headers map[string]string

	// RequestTimeout bounds each attempt (default 5s).
	RequestTimeout time.Duration
	// MaxAttempts bounds the retry loop: 0 means the default (8), negative
	// means retry forever (until ctx cancels).
	MaxAttempts int
	// BaseBackoff and MaxBackoff shape the full-jitter schedule: attempt n
	// sleeps uniform(0, min(MaxBackoff, BaseBackoff<<n)), floored by any
	// Retry-After the server sent. Defaults 50ms and 5s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration

	// BreakerThreshold consecutive transport/5xx failures open the breaker
	// (default 5; negative disables the breaker). BreakerCooldown is how
	// long it stays open before half-opening one probe (default 2s).
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// Metrics, when set, receives predictclient_retries_total{reason} and
	// predictclient_breaker_state (0 closed, 1 half-open, 2 open).
	Metrics *obs.Registry

	// Seed fixes the jitter RNG for deterministic tests; 0 seeds from the
	// clock.
	Seed int64
}

// Client is a predictd API client. It is safe for concurrent use.
type Client struct {
	cfg       Config
	httpc     *http.Client
	breaker   *breaker
	endpoints []string
	cur       atomic.Uint32 // index of the currently preferred endpoint

	retries *obs.CounterVec

	rngMu sync.Mutex
	rng   *rand.Rand

	// etagMu guards the Forecasts conditional-get cache: requested stream
	// set → last ETag and the response it validated.
	etagMu sync.Mutex
	etags  map[string]etagEntry
}

// New validates cfg, fills defaults, and returns a ready Client.
func New(cfg Config) (*Client, error) {
	endpoints := make([]string, 0, 1+len(cfg.Endpoints))
	if cfg.BaseURL != "" {
		endpoints = append(endpoints, cfg.BaseURL)
	}
	for _, e := range cfg.Endpoints {
		dup := false
		for _, have := range endpoints {
			if have == e {
				dup = true
				break
			}
		}
		if e != "" && !dup {
			endpoints = append(endpoints, e)
		}
	}
	if len(endpoints) == 0 {
		return nil, errors.New("predictclient: Config.BaseURL or Config.Endpoints is required")
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{}
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 5 * time.Second
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = 8
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 50 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 5
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 2 * time.Second
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	c := &Client{
		cfg:       cfg,
		httpc:     cfg.HTTPClient,
		endpoints: endpoints,
		rng:       rand.New(rand.NewSource(seed)),
	}
	if cfg.Metrics != nil {
		c.retries = cfg.Metrics.Counter("predictclient_retries_total",
			"Retried predictd requests by retry reason.", "reason")
	}
	if cfg.BreakerThreshold > 0 {
		var gauge *obs.Gauge
		if cfg.Metrics != nil {
			gauge = cfg.Metrics.Gauge1("predictclient_breaker_state",
				"Circuit breaker state: 0 closed, 1 half-open, 2 open.")
		}
		c.breaker = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, gauge)
	}
	return c, nil
}

// Ingest posts one batch and returns the server's accounting. Keyed samples
// (Seq != 0 with a Source on the client) retried through this method are
// applied exactly once by a WAL-mode server; the response's Deduped counts
// the replays it recognized.
func (c *Client) Ingest(ctx context.Context, samples []Sample) (*IngestResponse, error) {
	return c.IngestFrom(ctx, c.cfg.Source, samples)
}

// IngestFrom is Ingest with an explicit source identity — the cluster
// layer forwards and replicates batches on behalf of the original client,
// so the idempotency keys must carry that client's source, not the
// forwarding node's.
func (c *Client) IngestFrom(ctx context.Context, source string, samples []Sample) (*IngestResponse, error) {
	req := IngestRequest{Source: source, Samples: samples}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var resp IngestResponse
	if err := c.do(ctx, http.MethodPost, "/v1/ingest", body, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Forecast fetches the stream's latest forecast document.
func (c *Client) Forecast(ctx context.Context, stream string) (*ForecastResponse, error) {
	var resp ForecastResponse
	if err := c.do(ctx, http.MethodGet, "/v1/forecast/"+url.PathEscape(stream), nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Healthz reports whether the daemon is accepting work.
func (c *Client) Healthz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// respMeta is the successful response's metadata — the conditional-get
// machinery needs the status (200 vs 304) and headers (ETag).
type respMeta struct {
	status int
	header http.Header
}

// do runs the retry loop around one logical request. The request body is a
// byte slice (not a Reader) precisely so every attempt resends identical
// bytes — idempotency keys must not drift between attempts.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	_, err := c.doHdr(ctx, method, path, body, nil, out)
	return err
}

// doHdr is do with extra request headers and the successful response's
// metadata returned — the conditional-get read path sends If-None-Match and
// inspects ETag/304 this way.
func (c *Client) doHdr(ctx context.Context, method, path string, body []byte,
	hdr map[string]string, out any) (respMeta, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if c.breaker != nil {
			if err := c.breaker.allow(); err != nil {
				if lastErr != nil {
					return respMeta{}, fmt.Errorf("%w (last failure: %v)", err, lastErr)
				}
				return respMeta{}, err
			}
		}
		meta, retryable, retryAfter, err := c.attempt(ctx, method, path, body, hdr, out)
		if err == nil {
			return meta, nil
		}
		lastErr = err
		if !retryable {
			return respMeta{}, err
		}
		if c.cfg.MaxAttempts > 0 && attempt+1 >= c.cfg.MaxAttempts {
			return respMeta{}, fmt.Errorf("predictclient: %d attempts exhausted: %w", c.cfg.MaxAttempts, err)
		}
		c.retries.WithLabels(retryReason(err)).Inc()
		if werr := c.sleep(ctx, c.backoff(attempt, retryAfter)); werr != nil {
			return respMeta{}, fmt.Errorf("%w (last failure: %v)", werr, err)
		}
	}
}

// endpoint returns the currently preferred endpoint and its index.
func (c *Client) endpoint() (string, uint32) {
	idx := c.cur.Load() % uint32(len(c.endpoints))
	return c.endpoints[idx], idx
}

// rotate advances from the endpoint at idx to the next one, unless another
// goroutine already moved on — failures on a stale endpoint must not spin
// the preference past endpoints nobody has tried.
func (c *Client) rotate(idx uint32) {
	if len(c.endpoints) > 1 {
		c.cur.CompareAndSwap(idx, idx+1)
	}
}

// noteRoute adopts a server routing hint: when a response names the node
// that actually owns the streams (X-Predictd-Route), and that node is one
// of the configured endpoints, subsequent requests go there directly.
func (c *Client) noteRoute(hint string) {
	if hint == "" || len(c.endpoints) < 2 {
		return
	}
	for i, e := range c.endpoints {
		if strings.Contains(e, hint) {
			c.cur.Store(uint32(i))
			return
		}
	}
}

// attempt issues one HTTP round trip under the per-attempt deadline and
// classifies the outcome: (meta, retryable, server-requested floor, error).
// A transport failure or 5xx rotates the preferred endpoint so the retry
// lands on the next cluster node.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte,
	hdr map[string]string, out any) (respMeta, bool, time.Duration, error) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.RequestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	base, epIdx := c.endpoint()
	req, err := http.NewRequestWithContext(actx, method, base+path, rd)
	if err != nil {
		return respMeta{}, false, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range c.cfg.Headers {
		req.Header.Set(k, v)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		// Transport failure or per-attempt deadline: nothing definitive
		// was heard from the server, so retry (the idempotency keys make
		// even a half-applied ingest safe to resend). Stop retrying when
		// the caller's own ctx is the one that expired.
		c.breakerFailure()
		c.rotate(epIdx)
		if ctx.Err() != nil {
			return respMeta{}, false, 0, ctx.Err()
		}
		return respMeta{}, true, 0, fmt.Errorf("predictclient: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	meta := respMeta{status: resp.StatusCode, header: resp.Header}

	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		c.breakerSuccess()
		c.noteRoute(resp.Header.Get(routeHeader))
		if out != nil {
			if derr := json.Unmarshal(raw, out); derr != nil {
				return respMeta{}, false, 0, fmt.Errorf("predictclient: decode %s response: %w", path, derr)
			}
		}
		return meta, false, 0, nil
	case resp.StatusCode == http.StatusNotModified:
		// Conditional get hit: the caller's cached copy is still current.
		// Nothing to decode.
		c.breakerSuccess()
		c.noteRoute(resp.Header.Get(routeHeader))
		return meta, false, 0, nil
	case resp.StatusCode == http.StatusTooManyRequests:
		// Explicit throttling. The daemon is up and talking, so this does
		// not trip the breaker and there is no reason to change endpoints;
		// Retry-After floors the next sleep.
		c.breakerSuccess()
		return respMeta{}, true, parseRetryAfter(resp.Header.Get("Retry-After")), statusError(resp, raw)
	case resp.StatusCode == http.StatusServiceUnavailable:
		// Explicit backpressure — no breaker trip — but a draining,
		// shedding, or forward-failing node is a reason to try a peer.
		c.breakerSuccess()
		c.rotate(epIdx)
		return respMeta{}, true, parseRetryAfter(resp.Header.Get("Retry-After")), statusError(resp, raw)
	case resp.StatusCode >= 500:
		c.breakerFailure()
		c.rotate(epIdx)
		return respMeta{}, true, 0, statusError(resp, raw)
	default:
		// 4xx: the request itself is wrong; retrying cannot fix it.
		c.breakerSuccess()
		return respMeta{}, false, 0, statusError(resp, raw)
	}
}

func (c *Client) breakerSuccess() {
	if c.breaker != nil {
		c.breaker.success()
	}
}

func (c *Client) breakerFailure() {
	if c.breaker != nil {
		c.breaker.failure()
	}
}

// backoff computes the full-jitter sleep for the given attempt, floored by
// the server's Retry-After when one was sent.
func (c *Client) backoff(attempt int, floor time.Duration) time.Duration {
	ceil := c.cfg.MaxBackoff
	if shifted := c.cfg.BaseBackoff << uint(attempt); attempt < 32 && shifted < ceil && shifted > 0 {
		ceil = shifted
	}
	c.rngMu.Lock()
	d := time.Duration(c.rng.Int63n(int64(ceil) + 1))
	c.rngMu.Unlock()
	if d < floor {
		d = floor
	}
	return d
}

func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// retryReason maps a retryable failure to its metrics label.
func retryReason(err error) string {
	var serr *StatusError
	if !errors.As(err, &serr) {
		return reasonNetwork
	}
	switch {
	case serr.Code == http.StatusTooManyRequests:
		return reasonThrottle
	case serr.Code == http.StatusServiceUnavailable:
		if serr.Reason != "" {
			return serr.Reason
		}
		return reasonUnavailable
	default:
		return reasonServer
	}
}

// parseRetryAfter reads both Retry-After forms RFC 9110 §10.2.3 allows:
// delay-seconds ("120") and HTTP-date ("Fri, 08 Aug 2026 12:00:00 GMT"),
// the latter floored at zero when the date has already passed. Garbage
// parses as no floor.
func parseRetryAfter(v string) time.Duration {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// ---- wire documents ----
// These mirror predictd's JSON contract field-for-field; the client keeps
// its own copies so importing it never drags in server internals.

// Sample is one observation. Seq, with the client's Source, is its
// idempotency key; zero means unkeyed (at-least-once).
type Sample struct {
	Stream string  `json:"stream"`
	TS     int64   `json:"ts,omitempty"`
	Value  float64 `json:"value"`
	Seq    uint64  `json:"seq,omitempty"`
}

// IngestRequest is the POST /v1/ingest batch form.
type IngestRequest struct {
	Source  string   `json:"source,omitempty"`
	Samples []Sample `json:"samples,omitempty"`
}

// ErrorBody is the machine-readable error inside predictd's unified error
// envelope ({"error":{"code":"…","message":"…"}}).
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// IngestResponse is the server's ingest accounting. Error follows the
// unified envelope's body shape on failure responses.
type IngestResponse struct {
	Accepted int        `json:"accepted"`
	Rejected int        `json:"rejected,omitempty"`
	Deduped  int        `json:"deduped,omitempty"`
	Error    *ErrorBody `json:"error,omitempty"`
}

// ForecastDoc is the forecast half of a forecast response.
type ForecastDoc struct {
	TS          int64   `json:"ts"`
	Value       float64 `json:"value"`
	Normalized  float64 `json:"normalized"`
	Expert      string  `json:"expert,omitempty"`
	StdEstimate float64 `json:"std_estimate,omitempty"`
	Source      string  `json:"source,omitempty"`
}

// ForecastResponse is the GET /v1/forecast/{stream} document.
type ForecastResponse struct {
	Stream    string       `json:"stream"`
	Health    string       `json:"health"`
	LastTS    int64        `json:"last_ts"`
	LastValue float64      `json:"last_value"`
	LastError string       `json:"last_error,omitempty"`
	Forecast  *ForecastDoc `json:"forecast,omitempty"`
	Poisoned  bool         `json:"poisoned,omitempty"`
	Fault     string       `json:"fault,omitempty"`
	Processed uint64       `json:"processed"`
	Applied   uint64       `json:"applied,omitempty"`
}
