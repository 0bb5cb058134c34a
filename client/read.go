package client

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
)

// The read-side API: bulk forecast fetches with client-side ETag caching
// (a poll loop that mostly sees 304s costs the server one hash per poll),
// and an SSE subscription with automatic reconnect + Last-Event-ID resume
// so callers that want push never miss a forecast across a server restart.

// BulkForecastsResponse is the GET /v1/forecasts document.
type BulkForecastsResponse struct {
	Streams    []ForecastResponse `json:"streams"`
	Missing    []string           `json:"missing,omitempty"`
	NextCursor string             `json:"next_cursor,omitempty"`
}

// ForecastEvent is one SSE "forecast" event from /v1/subscribe: the step's
// observation, the forecast issued at it, and how the forecast targeting
// this observation fared.
type ForecastEvent struct {
	Stream    string       `json:"stream"`
	Seq       uint64       `json:"seq"`
	TS        int64        `json:"ts"`
	Value     float64      `json:"value"`
	Forecast  *ForecastDoc `json:"forecast,omitempty"`
	Predicted *float64     `json:"predicted,omitempty"`
	AbsErr    *float64     `json:"abs_err,omitempty"`
	Expert    string       `json:"expert,omitempty"`
}

// etagEntry is one cached bulk response.
type etagEntry struct {
	etag string
	resp *BulkForecastsResponse
}

// Forecasts fetches the named streams' forecast documents in one request,
// with conditional-get caching: the client remembers the ETag per requested
// stream set, sends If-None-Match, and serves a 304 from its cache. The
// returned document is shared with the cache — treat it as read-only.
func (c *Client) Forecasts(ctx context.Context, streams ...string) (*BulkForecastsResponse, error) {
	if len(streams) == 0 {
		return nil, fmt.Errorf("predictclient: Forecasts needs at least one stream")
	}
	key := strings.Join(streams, ",")
	path := "/v1/forecasts?streams=" + url.QueryEscape(key)

	c.etagMu.Lock()
	cached, haveCached := c.etags[key]
	c.etagMu.Unlock()
	hdr := map[string]string{}
	if haveCached {
		hdr["If-None-Match"] = cached.etag
	}

	var resp BulkForecastsResponse
	meta, err := c.doHdr(ctx, http.MethodGet, path, nil, hdr, &resp)
	if err != nil {
		return nil, err
	}
	if meta.status == http.StatusNotModified {
		return cached.resp, nil
	}
	if etag := meta.header.Get("ETag"); etag != "" {
		c.etagMu.Lock()
		if c.etags == nil {
			c.etags = map[string]etagEntry{}
		}
		c.etags[key] = etagEntry{etag: etag, resp: &resp}
		c.etagMu.Unlock()
	}
	return &resp, nil
}

// History fetches a stream's consolidated forecast-vs-actual history.
// Step <= 1 requests raw entries; larger steps select the server's finest
// tier covering the step. from/to bound by the samples' TS tags; pass
// hasFrom/hasTo=false to leave a side open.
func (c *Client) History(ctx context.Context, stream string, opt HistoryQuery) (*HistoryResponse, error) {
	q := url.Values{}
	if opt.HasFrom {
		q.Set("from", fmt.Sprint(opt.From))
	}
	if opt.HasTo {
		q.Set("to", fmt.Sprint(opt.To))
	}
	if opt.Step > 1 {
		q.Set("step", fmt.Sprint(opt.Step))
	}
	if opt.Limit > 0 {
		q.Set("limit", fmt.Sprint(opt.Limit))
	}
	path := "/v1/forecast/" + url.PathEscape(stream) + "/history"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var resp HistoryResponse
	if err := c.do(ctx, http.MethodGet, path, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// HistoryQuery selects a history range read.
type HistoryQuery struct {
	From, To       int64
	HasFrom, HasTo bool
	Step           int
	Limit          int
}

// HistoryEntry is one raw step of a stream's history.
type HistoryEntry struct {
	Seq            uint64  `json:"seq"`
	TS             int64   `json:"ts"`
	Actual         float64 `json:"actual"`
	Predicted      float64 `json:"predicted,omitempty"`
	PredictedStd   float64 `json:"predicted_std,omitempty"`
	Expert         string  `json:"expert,omitempty"`
	HasPredicted   bool    `json:"has_predicted,omitempty"`
	Forecast       float64 `json:"forecast,omitempty"`
	ForecastStd    float64 `json:"forecast_std,omitempty"`
	ForecastExpert string  `json:"forecast_expert,omitempty"`
	HasForecast    bool    `json:"has_forecast,omitempty"`
}

// HistoryRow is one consolidated row of a stream's history.
type HistoryRow struct {
	StartTS   int64   `json:"start_ts"`
	EndTS     int64   `json:"end_ts"`
	StartSeq  uint64  `json:"start_seq"`
	EndSeq    uint64  `json:"end_seq"`
	Count     int     `json:"count"`
	Predicted int     `json:"predicted,omitempty"`
	ActualAvg float64 `json:"actual_avg"`
	ActualMin float64 `json:"actual_min"`
	ActualMax float64 `json:"actual_max"`
	PredAvg   float64 `json:"pred_avg,omitempty"`
	AbsErrAvg float64 `json:"abs_err_avg,omitempty"`
	Expert    string  `json:"expert,omitempty"`
}

// HistoryResponse is the GET /v1/forecast/{stream}/history document.
type HistoryResponse struct {
	Stream     string         `json:"stream"`
	Seq        uint64         `json:"seq"`
	Resolution int            `json:"resolution"`
	Entries    []HistoryEntry `json:"entries,omitempty"`
	Rows       []HistoryRow   `json:"rows,omitempty"`
}

// SubscribeForecasts opens the SSE feed for the given streams and calls fn
// for every forecast event, exactly once per event, until ctx cancels or fn
// returns an error (which is returned). Dropped connections reconnect
// automatically with the client's backoff schedule, resuming from the last
// delivered position via Last-Event-ID — across a server restart, no event
// already delivered is repeated and none within the server's history ring
// is lost.
//
// Resume positions are per-node state: against a multi-node cluster behind
// distinct endpoints, reconnects stick to the endpoint that served the
// subscription rather than rotating.
func (c *Client) SubscribeForecasts(ctx context.Context, streams []string, fn func(ForecastEvent) error) error {
	if len(streams) == 0 {
		return fmt.Errorf("predictclient: SubscribeForecasts needs at least one stream")
	}
	base, _ := c.endpoint()
	target := base + "/v1/subscribe?streams=" + url.QueryEscape(strings.Join(streams, ","))
	// lastSeq is the client-side exactly-once guard: the server already
	// dedups across its own backfill/live seam, but a reconnect replays
	// from the resume position, and this filters anything delivered before
	// the connection dropped.
	lastSeq := make(map[string]uint64, len(streams))
	lastID := ""
	for attempt := 0; ; {
		err := c.streamOnce(ctx, target, lastID, func(id string, ev ForecastEvent) error {
			if ev.Seq <= lastSeq[ev.Stream] {
				return nil
			}
			lastSeq[ev.Stream] = ev.Seq
			lastID = id
			attempt = 0 // a delivered event proves the connection works
			return fn(ev)
		})
		if err != nil {
			var cbErr *callbackError
			if errors.As(err, &cbErr) {
				return cbErr.err
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if c.cfg.MaxAttempts > 0 && attempt+1 >= c.cfg.MaxAttempts {
			return fmt.Errorf("predictclient: %d subscribe attempts exhausted: %w", c.cfg.MaxAttempts, err)
		}
		c.retries.WithLabels(reasonNetwork).Inc()
		if werr := c.sleep(ctx, c.backoff(attempt, 0)); werr != nil {
			return werr
		}
		attempt++
	}
}

// callbackError wraps an error returned by the subscriber's callback so the
// reconnect loop can tell "stop, the caller said so" from "the connection
// died, reconnect".
type callbackError struct{ err error }

func (e *callbackError) Error() string { return e.err.Error() }

func (e *callbackError) Unwrap() error { return e.err }

// streamOnce runs one SSE connection until it drops, ctx cancels, or the
// callback errors. deliver receives the event's full id vector alongside
// the decoded event.
func (c *Client) streamOnce(ctx context.Context, target, lastID string,
	deliver func(id string, ev ForecastEvent) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	if lastID != "" {
		req.Header.Set("Last-Event-ID", lastID)
	}
	for k, v := range c.cfg.Headers {
		req.Header.Set(k, v)
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return fmt.Errorf("predictclient: subscribe: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw := make([]byte, 4096)
		n, _ := resp.Body.Read(raw)
		return statusError(resp, raw[:n])
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var id, event string
	var data strings.Builder
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			// Event boundary: dispatch what accumulated.
			if event == "forecast" && data.Len() > 0 {
				var ev ForecastEvent
				if derr := json.Unmarshal([]byte(data.String()), &ev); derr != nil {
					return fmt.Errorf("predictclient: decode feed event: %w", derr)
				}
				if cerr := deliver(id, ev); cerr != nil {
					return &callbackError{err: cerr}
				}
			}
			event = ""
			data.Reset()
		case strings.HasPrefix(line, ":"):
			// Heartbeat comment.
		case strings.HasPrefix(line, "id: "):
			id = line[len("id: "):]
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			if data.Len() > 0 {
				data.WriteByte('\n')
			}
			data.WriteString(line[len("data: "):])
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("predictclient: subscribe stream: %w", err)
	}
	return fmt.Errorf("predictclient: subscribe stream closed")
}
