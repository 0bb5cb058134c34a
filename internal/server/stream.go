package server

import (
	"bytes"
	"fmt"

	"github.com/acis-lab/larpredictor/internal/core"
	"github.com/acis-lab/larpredictor/internal/engine"
)

// StreamState is everything a stream needs to serve and keep learning on
// another daemon: the core codec's framed predictor bytes, the serving
// snapshot (latest observation and forecast), and the forecast-history
// rings. predictd's durable snapshot (gob) and the cluster's warm handoff
// (JSON) both carry it; gob matches fields by name, so snapshots written
// before this type existed still decode.
type StreamState struct {
	Online  []byte       `json:"online"`
	Cache   Snapshot     `json:"cache"`
	History HistoryState `json:"history"`
}

// CaptureStream reads one stream's state inside eng.Do, which holds the
// stream's shard lock: the predictor bytes, the cache entry and the history
// rings describe the same step, because OnResult (the cache and history
// writer) runs under that same lock. also, when non-nil, runs under the
// lock after the capture, for state that must describe the same step (the
// cluster handoff's dedup windows). The returned Online bytes alias buf and
// are valid until its next use.
func CaptureStream(eng *engine.Engine, cache *ResultCache, hist *HistoryStore,
	id string, buf *bytes.Buffer, also func()) (StreamState, error) {
	var st StreamState
	var err error
	found := eng.Do(id, func(o *core.Online) {
		buf.Reset()
		if err = o.SaveState(buf); err != nil {
			return
		}
		st.Online = buf.Bytes()
		st.Cache, _ = cache.Latest(id)
		st.History, _ = hist.State(id)
		if also != nil {
			also()
		}
	})
	switch {
	case err != nil:
		return st, fmt.Errorf("capture %s: %w", id, err)
	case !found:
		return st, fmt.Errorf("capture %s: %w", id, engine.ErrUnknownStream)
	}
	return st, nil
}

// InstallStream makes st the stream's serving state: the engine builds and
// restores the predictor (replacing any local one), the cache takes the
// serving snapshot, and the history store takes the rings only when they
// are ahead of its own, so a local ring rebuilt by WAL replay is never
// shortened. On error nothing is installed.
func InstallStream(eng *engine.Engine, cache *ResultCache, hist *HistoryStore,
	id string, st StreamState) error {
	if err := eng.Restore(id, bytes.NewReader(st.Online)); err != nil {
		return err
	}
	cache.Restore(id, st.Cache)
	if st.History.Seq > hist.Seq(id) {
		hist.Restore(id, st.History)
	}
	return nil
}
