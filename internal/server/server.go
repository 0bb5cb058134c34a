// Package server exposes the sharded prediction engine over HTTP/JSON — the
// deployment shape of fleet-scale forecasting: many producers POST samples
// into the engine's backpressured ingest path, request-path consumers GET
// the latest forecast for a stream, and operators scrape Prometheus metrics
// and probe readiness. Everything is stdlib net/http.
//
// The serving layer maps the engine's backpressure policies onto HTTP
// status codes: an accepted ingest is 202, a Reject-policy backlog is 429
// with a Retry-After hint, and a draining or closed engine is 503. The
// server itself applies admission control (a bounded in-flight semaphore),
// per-request timeouts, and request-size limits, so overload sheds at the
// edge instead of piling onto the shard queues.
//
// Shutdown is a drain sequence, not a teardown: stop accepting requests,
// wait out the in-flight ones, barrier the engine with Drain, then hand
// control to the OnDrain hook (predictd snapshots durable state there).
package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"github.com/acis-lab/larpredictor/internal/engine"
	"github.com/acis-lab/larpredictor/internal/obs"
)

// MaxSourceLen caps an ingest request's idempotency source, in bytes. Both
// transports refuse a longer source before dedup and the WAL, which would
// otherwise keep it in every dedup window and repeat it in every WAL sample.
const MaxSourceLen = 255

// KeyedSample is one decoded ingest sample plus its client-assigned
// idempotency key. Source "" (or Seq 0) means the sample is unkeyed and
// bypasses deduplication.
type KeyedSample struct {
	engine.Sample
	// Source identifies the producing client instance.
	Source string
	// Seq is the client's monotonically increasing sequence number for this
	// sample; (Source, Seq) is the per-stream dedup key.
	Seq uint64
}

// Config parameterizes a Server. Engine, Cache and History are required;
// everything else has a serving-safe default.
type Config struct {
	// Engine is the prediction engine the server fronts. Required.
	Engine *engine.Engine
	// Cache is the latest-result cache the forecast endpoint serves from.
	// It must be wired to the engine (Config.OnResult = Cache.Record) by
	// the composer. Required.
	Cache *ResultCache
	// History is the multi-resolution forecast-history store behind the
	// range, bulk conditional-get, and subscription endpoints. Like Cache it
	// must be wired into the engine's OnResult path by the composer.
	// Required.
	History *HistoryStore
	// MaxBulkStreams caps how many streams one bulk forecast or subscribe
	// request may name; more is a 400 "too_many_streams". Defaults to 256.
	MaxBulkStreams int
	// Registry instruments the server (request counters by endpoint and
	// code, latency histograms, in-flight gauge) and backs /metrics. Nil
	// serves an empty exposition and skips instrumentation.
	Registry *obs.Registry
	// MaxInFlight bounds concurrently served /v1 requests; excess requests
	// are shed with 503 + Retry-After before touching the engine. Defaults
	// to 256.
	MaxInFlight int
	// RequestTimeout bounds each /v1 request, including time spent blocked
	// on a full ingest queue under the Block policy. Defaults to 10s.
	RequestTimeout time.Duration
	// MaxBodyBytes caps the ingest request body. Defaults to 1 MiB.
	MaxBodyBytes int64
	// OnDrain, when set, runs at the end of Shutdown, after the listener
	// has stopped accepting and the engine has drained — the hook where
	// predictd snapshots durable state.
	OnDrain func()
	// Ingest, when set, replaces direct engine ingest on the request path —
	// predictd's WAL durability mode uses it to deduplicate on idempotency
	// keys and append each batch to the write-ahead log (group-commit fsync)
	// before any sample reaches the engine, so a 202 means the batch
	// survives a crash. It returns how many samples were enqueued, how many
	// were dropped as already-applied duplicates, and the engine's
	// backpressure error, if any (engine.ErrBacklog and engine.ErrClosed map
	// onto 429/503 exactly as in the direct path).
	Ingest func(batch []KeyedSample) (accepted, deduped int, err error)
	// Applied, when set, reports the durable count of keyed samples applied
	// to a stream; it is served in forecast documents so end-to-end audits
	// (and the chaos soak) can assert exactly-once application.
	Applied func(stream string) (uint64, bool)
	// Cluster, when set, makes this server one node of a replicated
	// predictd cluster: externally received ingest batches are routed by
	// stream ownership (non-owned samples forward synchronously to the
	// owner), locally applied batches replicate asynchronously to
	// followers, and forecast reads are served by role — fresh from the
	// owner, flagged stale from a replica, proxied otherwise.
	Cluster Cluster
	// ClusterHandler, when set, is mounted at /v1/cluster/ ahead of the
	// generic /v1 routes, bypassing admission control and the request
	// timeout: a shed heartbeat would read as a dead node, and a handoff
	// transfer may legitimately outlast the request timeout.
	ClusterHandler http.Handler
}

// Server serves the prediction API. Construct with New, start with Serve,
// stop with Shutdown.
type Server struct {
	cfg     Config
	eng     *engine.Engine
	cache   *ResultCache
	history *HistoryStore
	feed    *feed

	handler  http.Handler
	http     *http.Server
	sem      chan struct{}
	draining atomic.Bool

	met serverMetrics
}

// serverMetrics is the server's obs instrumentation; all fields are nil-safe
// when no registry is configured.
type serverMetrics struct {
	requests *obs.CounterVec   // endpoint, code
	latency  *obs.HistogramVec // endpoint
	inflight *obs.Gauge
	accepted *obs.Counter
	rejected *obs.Counter
}

// New validates cfg and builds the server (no listener yet).
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("server: nil engine")
	}
	if cfg.Cache == nil {
		return nil, errors.New("server: nil result cache")
	}
	if cfg.History == nil {
		return nil, errors.New("server: nil history store")
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = 256
	}
	if cfg.MaxInFlight < 1 {
		return nil, fmt.Errorf("server: max in-flight %d < 1", cfg.MaxInFlight)
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.RequestTimeout < 0 {
		return nil, fmt.Errorf("server: negative request timeout %v", cfg.RequestTimeout)
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.MaxBodyBytes < 1 {
		return nil, fmt.Errorf("server: max body bytes %d < 1", cfg.MaxBodyBytes)
	}
	if cfg.MaxBulkStreams == 0 {
		cfg.MaxBulkStreams = 256
	}
	if cfg.MaxBulkStreams < 1 {
		return nil, fmt.Errorf("server: max bulk streams %d < 1", cfg.MaxBulkStreams)
	}
	s := &Server{
		cfg:     cfg,
		eng:     cfg.Engine,
		cache:   cfg.Cache,
		history: cfg.History,
		feed:    newFeed(),
		sem:     make(chan struct{}, cfg.MaxInFlight),
	}
	s.history.OnAppend(s.feed.publish)
	if reg := cfg.Registry; reg != nil {
		s.met = serverMetrics{
			requests: reg.Counter("predictd_http_requests_total",
				"HTTP requests served, by endpoint and status code.", "endpoint", "code"),
			latency: reg.Histogram("predictd_http_request_seconds",
				"HTTP request latency by endpoint.",
				[]float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}, "endpoint"),
			inflight: reg.Gauge1("predictd_http_in_flight",
				"HTTP requests currently being served."),
			accepted: reg.Counter1("predictd_ingest_samples_accepted_total",
				"Samples accepted into the engine over HTTP."),
			rejected: reg.Counter1("predictd_ingest_samples_rejected_total",
				"Samples rejected at ingest (backlog, closed, or invalid)."),
		}
	}
	s.handler = s.buildHandler()
	s.http = &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	return s, nil
}

// buildHandler assembles the route table and the middleware stack:
// instrumentation outside, then admission control and the request timeout
// around the /v1 API. /healthz and /metrics bypass admission so probes and
// scrapes keep working under load.
func (s *Server) buildHandler() http.Handler {
	api := http.NewServeMux()
	api.HandleFunc("POST /v1/ingest", s.handleIngest)
	api.HandleFunc("GET /v1/forecast/{stream...}", s.handleForecast)
	api.HandleFunc("GET /v1/forecasts", s.handleBulkForecasts)
	api.HandleFunc("GET /v1/streams", s.handleStreams)

	var v1 http.Handler = api
	if s.cfg.RequestTimeout > 0 {
		v1 = s.withTimeout(v1)
	}
	v1 = s.admit(v1)

	root := http.NewServeMux()
	root.Handle("/v1/", v1)
	// The subscription feed mounts outside admission control and the
	// timeout middleware: a long-lived SSE connection must not pin an
	// in-flight slot, and the buffering timeout writer would swallow the
	// stream. (More specific than /v1/, so ServeMux routes it here.)
	root.HandleFunc("GET /v1/subscribe", s.handleSubscribe)
	if s.cfg.ClusterHandler != nil {
		// More specific than /v1/, so ServeMux routes cluster traffic here
		// — outside admission control and the request timeout.
		root.Handle("/v1/cluster/", s.cfg.ClusterHandler)
	}
	root.Handle("GET /metrics", obs.Handler(s.cfg.Registry))
	root.HandleFunc("GET /healthz", s.handleHealthz)
	return s.instrument(root)
}

// Handler returns the fully assembled HTTP handler (tests drive it through
// httptest without a real listener).
func (s *Server) Handler() http.Handler { return s.handler }

// Serve accepts connections on ln until Shutdown. It returns nil after a
// clean Shutdown.
func (s *Server) Serve(ln net.Listener) error {
	err := s.http.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Draining reports whether the server has entered its shutdown sequence.
func (s *Server) Draining() bool { return s.draining.Load() }

// Shutdown runs the graceful drain sequence: flip to draining (readiness
// probes and new ingests see 503), stop accepting and wait out in-flight
// requests (bounded by ctx), barrier the engine with Drain so every accepted
// sample is fully processed, then run the OnDrain hook. The engine itself is
// left open — its owner closes it.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	// Release live SSE subscribers first: http.Shutdown waits for open
	// connections, and a subscription never ends on its own.
	s.feed.close()
	err := s.http.Shutdown(ctx)
	s.eng.Drain()
	if s.cfg.OnDrain != nil {
		s.cfg.OnDrain()
	}
	return err
}

// admit is the admission-control middleware: a full in-flight semaphore
// sheds the request with 503 + Retry-After instead of queueing it.
func (s *Server) admit(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
			next.ServeHTTP(w, r)
		default:
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, CodeShed, "server at capacity")
		}
	})
}

// instrument wraps the whole route table with the request counter, latency
// histogram, and in-flight gauge.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.met.inflight.Add(1)
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(rec, r)
		s.met.inflight.Add(-1)
		ep := endpointLabel(r)
		s.met.requests.WithLabels(ep, strconv.Itoa(rec.code)).Inc()
		s.met.latency.WithLabels(ep).Observe(time.Since(start).Seconds())
	})
}

// endpointLabel maps a request to a bounded-cardinality metric label. It
// reads the escaped path after the route prefix, as handleForecast does, so
// neither an escaped slash in a stream ID nor the stream named history
// reads as the history suffix.
func endpointLabel(r *http.Request) string {
	switch p := r.URL.EscapedPath(); {
	case p == "/v1/ingest":
		return "ingest"
	case p == "/v1/streams":
		return "streams"
	case p == "/v1/forecasts":
		return "forecasts"
	case p == "/v1/subscribe":
		return "subscribe"
	case len(p) > len("/v1/cluster/") && p[:len("/v1/cluster/")] == "/v1/cluster/":
		return "cluster"
	case len(p) > len("/v1/forecast/") && p[:len("/v1/forecast/")] == "/v1/forecast/":
		if strings.HasSuffix(p[len("/v1/forecast/"):], "/history") {
			return "history"
		}
		return "forecast"
	case p == "/healthz":
		return "healthz"
	case p == "/metrics":
		return "metrics"
	}
	return "other"
}

// statusRecorder captures the response code for instrumentation.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.code = code
		r.wrote = true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the real writer's Flush — the
// SSE handler streams through this recorder.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// ---- API documents ----

// IngestSample is one observation in an ingest request.
type IngestSample struct {
	// Stream identifies the prediction stream; required, non-empty.
	Stream string `json:"stream"`
	// TS is an opaque caller tag (conventionally a unix timestamp) carried
	// through to the forecast document untouched.
	TS int64 `json:"ts,omitempty"`
	// Value is the observation.
	Value float64 `json:"value"`
	// Seq, together with the request's Source, forms the sample's
	// idempotency key. Zero means unkeyed.
	Seq uint64 `json:"seq,omitempty"`
}

// IngestRequest carries one sample (inline fields) or a batch (Samples).
// Setting both is allowed: the inline sample is ingested first. Source (at
// most MaxSourceLen bytes) plus per-sample Seq form idempotency keys; on a
// server running with WAL durability, a retried keyed batch is applied
// exactly once.
type IngestRequest struct {
	Stream  string         `json:"stream,omitempty"`
	TS      int64          `json:"ts,omitempty"`
	Value   float64        `json:"value,omitempty"`
	Seq     uint64         `json:"seq,omitempty"`
	Source  string         `json:"source,omitempty"`
	Samples []IngestSample `json:"samples,omitempty"`
}

// IngestResponse reports how a (possibly partially accepted) ingest fared.
// Deduped counts samples recognized as already-applied retries; they are
// acked without being re-applied. Error, when present, follows the unified
// envelope's body shape, so an ingest failure document is the envelope plus
// accounting fields.
type IngestResponse struct {
	Accepted int        `json:"accepted"`
	Rejected int        `json:"rejected,omitempty"`
	Deduped  int        `json:"deduped,omitempty"`
	Error    *ErrorBody `json:"error,omitempty"`
}

// ForecastDoc is the forecast part of a forecast response.
type ForecastDoc struct {
	TS          int64   `json:"ts"`
	Value       float64 `json:"value"`
	Normalized  float64 `json:"normalized"`
	Expert      string  `json:"expert,omitempty"`
	StdEstimate float64 `json:"std_estimate,omitempty"`
	Source      string  `json:"source,omitempty"`
}

// ForecastResponse is the GET /v1/forecast/{stream} document: the latest
// forecast (absent during warm-up), the newest observation, and the
// stream's health and supervision state.
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
	// Applied is the durable count of keyed samples applied to this stream
	// (WAL durability mode only; zero otherwise). Unlike Processed it
	// survives restarts, so it is the number end-to-end audits compare
	// against acked sends.
	Applied uint64 `json:"applied,omitempty"`
}

// StreamDoc is one row of the GET /v1/streams listing.
type StreamDoc struct {
	ID        string `json:"id"`
	Health    string `json:"health"`
	Processed uint64 `json:"processed"`
	Dropped   uint64 `json:"dropped,omitempty"`
	Panics    int    `json:"panics,omitempty"`
	Poisoned  bool   `json:"poisoned,omitempty"`
	Fault     string `json:"fault,omitempty"`
}

// StreamsResponse is the paginated stream listing: streams sorted by ID.
// The contract is cursor-based — NextCursor carries the opaque cursor for
// the next page while more remain; pass it back as ?cursor=.
type StreamsResponse struct {
	Total      int         `json:"total"`
	Streams    []StreamDoc `json:"streams"`
	NextCursor string      `json:"next_cursor,omitempty"`
}

// BulkForecastsResponse is the GET /v1/forecasts document: one full
// forecast document per known requested stream, the requested-but-unknown
// stream IDs, and — in cursor mode — the next page's cursor.
type BulkForecastsResponse struct {
	Streams    []ForecastResponse `json:"streams"`
	Missing    []string           `json:"missing,omitempty"`
	NextCursor string             `json:"next_cursor,omitempty"`
}

// HistoryResponse is the GET /v1/forecast/{stream}/history document. Raw
// resolution (step <= 1) fills Entries; consolidated resolutions fill Rows,
// whose last row may be the still-open partial bucket. Seq is the stream's
// newest history sequence number — the subscription feed's resume cursor.
type HistoryResponse struct {
	Stream     string         `json:"stream"`
	Seq        uint64         `json:"seq"`
	Resolution int            `json:"resolution"`
	Entries    []HistoryEntry `json:"entries,omitempty"`
	Rows       []HistoryRow   `json:"rows,omitempty"`
}

// ---- handlers ----

// handleIngest decodes a single sample or a batch and pushes it into the
// engine — through the durability hook when one is configured — mapping the
// outcome onto the status code: 202 all accepted (or deduplicated), 429 +
// Retry-After on backlog (Reject policy), 503 when the server is draining
// or the engine is closed.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, CodeDraining, "draining")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req IngestRequest
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
				fmt.Sprintf("body exceeds %d bytes", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, CodeBadRequest, "bad request: "+err.Error())
		return
	}

	if len(req.Source) > MaxSourceLen {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("source exceeds %d bytes", MaxSourceLen))
		return
	}
	batch := make([]KeyedSample, 0, len(req.Samples)+1)
	if req.Stream != "" {
		batch = append(batch, KeyedSample{
			Sample: engine.Sample{ID: req.Stream, TS: req.TS, Value: req.Value},
			Source: req.Source, Seq: req.Seq,
		})
	}
	for i, smp := range req.Samples {
		if smp.Stream == "" {
			writeError(w, http.StatusBadRequest, CodeEmptyStream,
				fmt.Sprintf("samples[%d]: empty stream", i))
			return
		}
		batch = append(batch, KeyedSample{
			Sample: engine.Sample{ID: smp.Stream, TS: smp.TS, Value: smp.Value},
			Source: req.Source, Seq: smp.Seq,
		})
	}
	if len(batch) == 0 {
		writeError(w, http.StatusBadRequest, CodeNoSamples, "no samples")
		return
	}

	// The decoded batch runs the transport-independent pipeline (draining
	// check, cluster route/forward, durable apply, replication) shared with
	// the binary wire listener; this handler only maps the outcome back
	// onto HTTP.
	if cl := s.cfg.Cluster; cl != nil {
		w.Header().Set(NodeHeader, cl.NodeID())
	}
	out := s.IngestKeyed(r.Context(), r.Header.Get(ClusterHeader), batch)
	if out.RouteHint != "" {
		w.Header().Set(RouteHeader, out.RouteHint)
	}
	resp := IngestResponse{
		Accepted: out.Accepted + out.FwdAccepted,
		Rejected: out.Rejected,
		Deduped:  out.Deduped + out.FwdDeduped,
	}
	switch {
	case errors.Is(out.Err, ErrDraining):
		// Draining began between the top-of-handler check and the apply.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, CodeDraining, "draining")
	case errors.Is(out.Err, ErrForwardFailed):
		w.Header().Set("Retry-After", "1")
		resp.Error = &ErrorBody{Code: CodeForwardFailed, Message: out.Err.Error()}
		writeJSON(w, http.StatusServiceUnavailable, resp)
	case out.Err == nil:
		writeJSON(w, http.StatusAccepted, resp)
	case errors.Is(out.Err, engine.ErrBacklog):
		resp.Error = &ErrorBody{Code: CodeBacklog, Message: "ingest backlog"}
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, resp)
	case errors.Is(out.Err, engine.ErrClosed):
		resp.Error = &ErrorBody{Code: CodeDraining, Message: "engine closed"}
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, resp)
	default:
		resp.Error = &ErrorBody{Code: CodeInternal, Message: out.Err.Error()}
		writeJSON(w, http.StatusInternalServerError, resp)
	}
}

// handleForecast serves the stream's latest forecast and health document,
// or — when the path ends in "/history" — the stream's consolidated
// forecast-vs-actual history. Stream IDs may contain slashes, so the
// history suffix is carved off the wildcard rather than routed separately.
// The suffix is cut from the wildcard only when the escaped path, where a
// slash inside an escaped ID is still %2F, ends in it too: "x%2Fhistory"
// names stream "x/history", "x/history" is stream x's history, and
// "history" is the stream named history.
func (s *Server) handleForecast(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("stream")
	if hid, ok := strings.CutSuffix(id, "/history"); ok && strings.HasSuffix(r.URL.EscapedPath(), "/history") {
		s.handleHistory(w, r, hid)
		return
	}
	if id == "" {
		writeError(w, http.StatusBadRequest, CodeEmptyStream, "empty stream")
		return
	}
	if cl := s.cfg.Cluster; cl != nil {
		w.Header().Set(NodeHeader, cl.NodeID())
		// Reads already proxied by a peer (ClusterRead) serve the local
		// view unconditionally — one hop, no proxy chains.
		if r.Header.Get(ClusterHeader) == "" {
			switch role, peer := cl.ReadRole(id); role {
			case ReadReplica:
				// This node replicates the stream: serve the local view,
				// flagged stale — correct as of the last replicated batch.
				w.Header().Set(StaleHeader, "true")
				if addr := cl.PeerAddr(peer); addr != "" {
					w.Header().Set(RouteHeader, addr)
				}
			case ReadProxy:
				if body, perr := cl.ProxyForecast(r.Context(), peer, id); perr == nil {
					if addr := cl.PeerAddr(peer); addr != "" {
						w.Header().Set(RouteHeader, addr)
					}
					w.Header().Set("Content-Type", "application/json")
					w.WriteHeader(http.StatusOK)
					w.Write(body)
					return
				}
				// Owner unreachable (likely mid-failover, before the
				// detector confirms it down): fall through to whatever
				// local view exists rather than going dark.
				w.Header().Set(StaleHeader, "true")
			}
		}
	}
	resp, ok := s.forecastDoc(id)
	if !ok {
		writeError(w, http.StatusNotFound, CodeUnknownStream, "unknown stream "+id)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// forecastDoc assembles a stream's forecast document from the cache and the
// engine's supervision view. ok is false for a never-seen stream.
func (s *Server) forecastDoc(id string) (ForecastResponse, bool) {
	snap, haveSnap := s.cache.Latest(id)
	st, haveStats := s.eng.Stats(id)
	if !haveSnap && !haveStats {
		return ForecastResponse{}, false
	}
	resp := ForecastResponse{
		Stream:    id,
		Health:    snap.Health.String(),
		LastTS:    snap.LastTS,
		LastValue: snap.LastValue,
		LastError: snap.LastErr,
	}
	if haveStats {
		// The engine's supervision view is fresher than the cache for
		// health: a restored-but-idle stream has stats and no snapshot yet.
		resp.Health = st.Health.State.String()
		resp.Poisoned = st.Poisoned
		resp.Fault = st.Fault
		resp.Processed = st.Processed
	}
	if s.cfg.Applied != nil {
		resp.Applied, _ = s.cfg.Applied(id)
	}
	if snap.HasPred {
		resp.Forecast = &ForecastDoc{
			TS:          snap.PredTS,
			Value:       snap.Pred.Value,
			Normalized:  snap.Pred.Normalized,
			Expert:      snap.Pred.SelectedName,
			StdEstimate: snap.Pred.StdEstimate,
			Source:      snap.Pred.Source,
		}
	}
	return resp, true
}

// readFlags stamps the cluster read-role headers for a locally served read
// of the given stream: replica- or proxy-role reads are flagged stale with
// a route hint toward the owner. History and bulk reads are never proxied —
// any replica's ring answers, and the flags tell the client how fresh it is.
func (s *Server) readFlags(w http.ResponseWriter, r *http.Request, id string) {
	cl := s.cfg.Cluster
	if cl == nil || r.Header.Get(ClusterHeader) != "" {
		return
	}
	if role, peer := cl.ReadRole(id); role != ReadOwner {
		w.Header().Set(StaleHeader, "true")
		if addr := cl.PeerAddr(peer); addr != "" {
			w.Header().Set(RouteHeader, addr)
		}
	}
}

// handleHistory serves GET /v1/forecast/{stream}/history?from=&to=&step=:
// the stream's forecast-vs-actual record at the requested resolution — raw
// entries for step <= 1, else the finest consolidated tier covering the
// step — bounded to [from, to] by the samples' TS tags.
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request, id string) {
	if id == "" {
		writeError(w, http.StatusBadRequest, CodeEmptyStream, "empty stream")
		return
	}
	if cl := s.cfg.Cluster; cl != nil {
		w.Header().Set(NodeHeader, cl.NodeID())
		s.readFlags(w, r, id)
	}
	q := r.URL.Query()
	var query RangeQuery
	var err error
	if v := q.Get("from"); v != "" {
		query.HasFrom = true
		if query.From, err = strconv.ParseInt(v, 10, 64); err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRange, "bad from: "+v)
			return
		}
	}
	if v := q.Get("to"); v != "" {
		query.HasTo = true
		if query.To, err = strconv.ParseInt(v, 10, 64); err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRange, "bad to: "+v)
			return
		}
	}
	if query.HasFrom && query.HasTo && query.From > query.To {
		writeError(w, http.StatusBadRequest, CodeBadRange,
			fmt.Sprintf("from %d > to %d", query.From, query.To))
		return
	}
	if v := q.Get("step"); v != "" {
		if query.Step, err = strconv.Atoi(v); err != nil || query.Step < 0 {
			writeError(w, http.StatusBadRequest, CodeBadRange, "bad step: "+v)
			return
		}
	}
	if v := q.Get("limit"); v != "" {
		if query.Limit, err = strconv.Atoi(v); err != nil || query.Limit < 1 {
			writeError(w, http.StatusBadRequest, CodeBadLimit, "bad limit: "+v)
			return
		}
	}
	res, ok := s.history.Range(id, query)
	if !ok {
		writeError(w, http.StatusNotFound, CodeUnknownStream, "unknown stream "+id)
		return
	}
	writeJSON(w, http.StatusOK, HistoryResponse{
		Stream:     id,
		Seq:        s.history.Seq(id),
		Resolution: res.Resolution,
		Entries:    res.Entries,
		Rows:       res.Rows,
	})
}

// splitStreamsParam parses a comma-separated streams= parameter against the
// bulk cap. An empty parameter or empty element is rejected.
func splitStreamsParam(raw string, maxStreams int) (ids []string, errCode, errMsg string) {
	if raw == "" {
		return nil, CodeBadRequest, "missing streams parameter"
	}
	ids = strings.Split(raw, ",")
	if len(ids) > maxStreams {
		return nil, CodeTooManyStreams,
			fmt.Sprintf("%d streams requested, cap is %d", len(ids), maxStreams)
	}
	for _, id := range ids {
		if id == "" {
			return nil, CodeEmptyStream, "empty stream in streams parameter"
		}
	}
	return ids, "", ""
}

// streamsETag computes the bulk response's strong ETag: a hash over this
// node's identity and every requested stream's version — its history seq,
// bumped by each processed sample. Any new sample on any requested stream
// changes the tag.
func (s *Server) streamsETag(ids []string) string {
	h := fnv.New64a()
	if cl := s.cfg.Cluster; cl != nil {
		io.WriteString(h, cl.NodeID())
	}
	var buf [8]byte
	for _, id := range ids {
		io.WriteString(h, id)
		binary.LittleEndian.PutUint64(buf[:], s.history.Seq(id))
		h.Write(buf[:])
	}
	return fmt.Sprintf("\"f%016x\"", h.Sum64())
}

// handleBulkForecasts serves GET /v1/forecasts — the dashboard fan-out
// read. With ?streams=a,b,c it returns exactly those streams' forecast
// documents under a strong ETag (If-None-Match answers 304 while no
// requested stream has processed a new sample). Without ?streams= it pages
// through all streams with the shared cursor contract.
func (s *Server) handleBulkForecasts(w http.ResponseWriter, r *http.Request) {
	if cl := s.cfg.Cluster; cl != nil {
		w.Header().Set(NodeHeader, cl.NodeID())
	}
	q := r.URL.Query()
	if raw := q.Get("streams"); raw != "" {
		ids, errCode, errMsg := splitStreamsParam(raw, s.cfg.MaxBulkStreams)
		if errCode != "" {
			writeError(w, http.StatusBadRequest, errCode, errMsg)
			return
		}
		for _, id := range ids {
			s.readFlags(w, r, id)
		}
		etag := s.streamsETag(ids)
		w.Header().Set("ETag", etag)
		if matchesETag(r.Header.Get("If-None-Match"), etag) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		resp := BulkForecastsResponse{Streams: make([]ForecastResponse, 0, len(ids))}
		for _, id := range ids {
			if doc, ok := s.forecastDoc(id); ok {
				resp.Streams = append(resp.Streams, doc)
			} else {
				resp.Missing = append(resp.Missing, id)
			}
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}

	cursor, limit, errCode, errMsg := cursorParams(q, 100)
	if errCode != "" {
		writeError(w, http.StatusBadRequest, errCode, errMsg)
		return
	}
	ids := s.streamIDsAfter(cursor)
	resp := BulkForecastsResponse{Streams: []ForecastResponse{}}
	for _, id := range ids {
		if len(resp.Streams) == limit {
			resp.NextCursor = resp.Streams[len(resp.Streams)-1].Stream
			break
		}
		if doc, ok := s.forecastDoc(id); ok {
			resp.Streams = append(resp.Streams, doc)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// matchesETag reports whether an If-None-Match header matches the ETag
// (strong comparison; "*" matches anything).
func matchesETag(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, part := range strings.Split(header, ",") {
		if part = strings.TrimSpace(part); part == etag || part == "*" {
			return true
		}
	}
	return false
}

// cursorParams parses the shared cursor-pagination contract: cursor is the
// last stream ID of the previous page (opaque to clients), limit the page
// size.
func cursorParams(q url.Values, defLimit int) (cursor string, limit int, errCode, errMsg string) {
	cursor = q.Get("cursor")
	if !utf8.ValidString(cursor) {
		return "", 0, CodeBadCursor, "cursor is not valid UTF-8"
	}
	limit = defLimit
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return "", 0, CodeBadLimit, "bad limit: " + v
		}
		limit = n
	}
	if limit > maxStreamsPage {
		limit = maxStreamsPage
	}
	return cursor, limit, "", ""
}

// streamIDsAfter lists all stream IDs strictly after cursor, sorted.
func (s *Server) streamIDsAfter(cursor string) []string {
	var ids []string
	s.eng.Each(func(id string, _ engine.StreamStats) {
		if id > cursor {
			ids = append(ids, id)
		}
	})
	sort.Strings(ids)
	return ids
}

// maxStreamsPage caps one page of the stream listing.
const maxStreamsPage = 1000

// handleStreams serves the paginated, ID-sorted stream listing. The
// contract is cursor-based (?cursor=&limit=, next_cursor in the body) and
// shared with the bulk forecast endpoint. The removed offset contract is
// refused outright, so an old client fails loudly instead of paging forever.
func (s *Server) handleStreams(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Has("offset") {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			"offset pagination was removed: page with ?cursor= and next_cursor")
		return
	}
	cursor, limit, errCode, errMsg := cursorParams(r.URL.Query(), 100)
	if errCode != "" {
		writeError(w, http.StatusBadRequest, errCode, errMsg)
		return
	}

	type row struct {
		id string
		st engine.StreamStats
	}
	var rows []row
	s.eng.Each(func(id string, st engine.StreamStats) {
		rows = append(rows, row{id, st})
	})
	sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })
	resp := StreamsResponse{Total: len(rows), Streams: []StreamDoc{}}
	for _, rw := range rows {
		if rw.id <= cursor {
			continue
		}
		if len(resp.Streams) == limit {
			resp.NextCursor = resp.Streams[len(resp.Streams)-1].ID
			break
		}
		resp.Streams = append(resp.Streams, StreamDoc{
			ID:        rw.id,
			Health:    rw.st.Health.State.String(),
			Processed: rw.st.Processed,
			Dropped:   rw.st.Dropped,
			Panics:    rw.st.Panics,
			Poisoned:  rw.st.Poisoned,
			Fault:     rw.st.Fault,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz is the readiness probe: 200 while serving, 503 once the
// drain sequence has begun so load balancers stop routing here.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		// Enveloped like every other 503, so a retrying client labels it
		// by its code.
		writeError(w, http.StatusServiceUnavailable, CodeDraining, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// writeJSON renders one response document.
func writeJSON(w http.ResponseWriter, code int, doc any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(doc)
}
