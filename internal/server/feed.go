package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The subscription feed turns the read path from poll to push: one SSE
// connection per dashboard instead of per-stream polling. Events are keyed
// by each stream's history seq, and the event id carries the subscriber's
// full position vector ("a@12,b@47"), so a dropped connection resumes via
// the standard Last-Event-ID header: the handler backfills everything after
// the resume position from the history ring, then goes live. A subscriber
// that falls behind the ring is not an error — it re-backfills from the
// ring and the gap is visible in the seq numbers.
//
// The feed handler mounts outside admission control and the request
// timeout: a subscription is a long-lived connection, so it must not pin an
// in-flight semaphore slot, and the timeout middleware's buffering writer
// would swallow the stream.

// FeedEvent is one SSE "forecast" event: the step's observation plus the
// forecast issued at it, and (when present) how the forecast targeting this
// observation fared.
type FeedEvent struct {
	Stream string  `json:"stream"`
	Seq    uint64  `json:"seq"`
	TS     int64   `json:"ts"`
	Value  float64 `json:"value"`
	// Forecast is the prediction issued at this step (for the next
	// observation); absent while the stream warms up or on a failed step.
	Forecast *ForecastDoc `json:"forecast,omitempty"`
	// Predicted and AbsErr report the forecast that targeted this
	// observation, when one existed.
	Predicted *float64 `json:"predicted,omitempty"`
	AbsErr    *float64 `json:"abs_err,omitempty"`
	Expert    string   `json:"expert,omitempty"`
}

// sseHeartbeat is the subscription feed's keep-alive comment interval.
const sseHeartbeat = 15 * time.Second

// feedMsg is one published entry in flight to a subscriber.
type feedMsg struct {
	stream string
	e      HistoryEntry
}

// feedSub is one live SSE subscriber.
type feedSub struct {
	streams map[string]struct{}
	ch      chan feedMsg
	// lagged flips when a publish found the channel full; the handler
	// re-backfills from the ring and clears it.
	lagged atomic.Bool
	// done closes when the server shuts the feed down, releasing the
	// handler (and with it the connection) so Shutdown doesn't hang on
	// open subscriptions.
	done chan struct{}
}

// feed is the broker between the history store's append hook and the SSE
// handlers. Publishing never blocks: a slow subscriber lags and recovers
// from the ring instead of backpressuring the engine's shard workers.
type feed struct {
	mu     sync.RWMutex
	subs   map[*feedSub]struct{}
	closed bool
}

func newFeed() *feed { return &feed{subs: make(map[*feedSub]struct{})} }

// publish fans one recorded entry out to matching subscribers. Runs on the
// engine's shard worker goroutines; must stay non-blocking.
func (f *feed) publish(stream string, e HistoryEntry) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	for sub := range f.subs {
		if _, ok := sub.streams[stream]; !ok {
			continue
		}
		select {
		case sub.ch <- feedMsg{stream: stream, e: e}:
		default:
			sub.lagged.Store(true)
		}
	}
}

// subscribe registers a subscriber for the given streams. ok is false once
// the feed has shut down.
func (f *feed) subscribe(streams []string, buffer int) (*feedSub, bool) {
	sub := &feedSub{
		streams: make(map[string]struct{}, len(streams)),
		ch:      make(chan feedMsg, buffer),
		done:    make(chan struct{}),
	}
	for _, s := range streams {
		sub.streams[s] = struct{}{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, false
	}
	f.subs[sub] = struct{}{}
	return sub, true
}

func (f *feed) unsubscribe(sub *feedSub) {
	f.mu.Lock()
	delete(f.subs, sub)
	f.mu.Unlock()
}

// close shuts the feed down: every live subscriber's done channel closes
// (ending its handler) and future subscribes are refused.
func (f *feed) close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.closed = true
	for sub := range f.subs {
		close(sub.done)
	}
}

// parseEventID parses a Last-Event-ID position vector ("a@12,b@47") into
// per-stream resume positions. Unknown streams are kept — the subscriber
// chooses its stream set independently — and malformed parts are an error
// so a corrupted id fails loud instead of silently replaying from zero.
func parseEventID(id string) (map[string]uint64, error) {
	pos := make(map[string]uint64)
	if id == "" {
		return pos, nil
	}
	for _, part := range strings.Split(id, ",") {
		at := strings.LastIndex(part, "@")
		if at <= 0 || at == len(part)-1 {
			return nil, fmt.Errorf("bad event id part %q", part)
		}
		seq, err := strconv.ParseUint(part[at+1:], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad event id part %q", part)
		}
		pos[part[:at]] = seq
	}
	return pos, nil
}

// formatEventID renders the position vector as a stable (sorted) event id.
func formatEventID(pos map[string]uint64) string {
	keys := make([]string, 0, len(pos))
	for k := range pos {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('@')
		b.WriteString(strconv.FormatUint(pos[k], 10))
	}
	return b.String()
}

// feedEvent converts a history entry to its wire document.
func feedEvent(stream string, e HistoryEntry) FeedEvent {
	ev := FeedEvent{Stream: stream, Seq: e.Seq, TS: e.TS, Value: e.Actual}
	if e.HasNext {
		ev.Forecast = &ForecastDoc{
			TS:          e.TS,
			Value:       e.Next,
			Expert:      e.NextExpert,
			StdEstimate: e.NextStd,
		}
	}
	if e.HasPred {
		p, ae := e.Pred, e.Pred-e.Actual
		if ae < 0 {
			ae = -ae
		}
		ev.Predicted, ev.AbsErr, ev.Expert = &p, &ae, e.Expert
	}
	return ev
}

// handleSubscribe serves GET /v1/subscribe?streams=a,b,c as an SSE stream
// of "forecast" events with Last-Event-ID resume.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	streams, errCode, errMsg := splitStreamsParam(r.URL.Query().Get("streams"), s.cfg.MaxBulkStreams)
	if errCode != "" {
		writeError(w, http.StatusBadRequest, errCode, errMsg)
		return
	}
	// EventSource can't set headers on reconnect targets it doesn't control;
	// accept the resume position as a query parameter too (header wins).
	resumeID := r.Header.Get("Last-Event-ID")
	if resumeID == "" {
		resumeID = r.URL.Query().Get("last_event_id")
	}
	pos, err := parseEventID(resumeID)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}

	sub, ok := s.feed.subscribe(streams, 256)
	if !ok {
		writeError(w, http.StatusServiceUnavailable, CodeDraining, "draining")
		return
	}
	defer s.feed.unsubscribe(sub)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("X-Accel-Buffering", "no")
	if cl := s.cfg.Cluster; cl != nil {
		h.Set(NodeHeader, cl.NodeID())
	}
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	// Flush the headers now: with no backfill and a quiet stream, nothing
	// else writes until the first heartbeat, and EventSource clients sit in
	// "connecting" until the response head arrives.
	if err := rc.Flush(); err != nil {
		return
	}

	// lastSent is the dedup guard between backfill and the live channel: a
	// subscriber registered before backfill reads the ring, so an entry can
	// arrive both ways; seq ordering makes dropping duplicates trivial.
	lastSent := make(map[string]uint64, len(streams))
	for _, id := range streams {
		lastSent[id] = pos[id]
	}
	var backfill []HistoryEntry
	send := func(stream string, e HistoryEntry) error {
		if e.Seq <= lastSent[stream] {
			return nil
		}
		lastSent[stream] = e.Seq
		buf, jerr := json.Marshal(feedEvent(stream, e))
		if jerr != nil {
			return jerr
		}
		if _, werr := fmt.Fprintf(w, "id: %s\nevent: forecast\ndata: %s\n\n",
			formatEventID(lastSent), buf); werr != nil {
			return werr
		}
		return rc.Flush()
	}
	catchUp := func() error {
		for _, id := range streams {
			backfill, _ = s.history.EntriesSince(id, lastSent[id], backfill[:0])
			for _, e := range backfill {
				if serr := send(id, e); serr != nil {
					return serr
				}
			}
		}
		return nil
	}
	if err := catchUp(); err != nil {
		return
	}

	ticker := time.NewTicker(sseHeartbeat)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-sub.done:
			return
		case m := <-sub.ch:
			if err := send(m.stream, m.e); err != nil {
				return
			}
			if sub.lagged.CompareAndSwap(true, false) {
				if err := catchUp(); err != nil {
					return
				}
			}
		case <-ticker.C:
			// Comment line: keeps intermediaries from idling the connection
			// out and lets the handler notice a dead client.
			if _, err := fmt.Fprint(w, ": hb\n\n"); err != nil {
				return
			}
			if err := rc.Flush(); err != nil {
				return
			}
		}
	}
}
