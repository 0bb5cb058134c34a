package server

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"github.com/acis-lab/larpredictor/internal/core"
	"github.com/acis-lab/larpredictor/internal/engine"
)

// StreamState is everything a stream needs to serve and keep learning on
// another daemon: the core codec's framed predictor bytes, the serving
// snapshot (latest observation and forecast), and the forecast-history
// rings. predictd's durable snapshot and the cluster's warm handoff both
// carry it inside a StreamRecord; gob matches fields by name, so snapshots
// written before this type existed still decode.
type StreamState struct {
	Online  []byte
	Cache   Snapshot
	History HistoryState
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
// shortened. Predictor state that does not load and history the store
// cannot hold are both reported as engine.ErrBadState. On error nothing is
// installed.
func InstallStream(eng *engine.Engine, cache *ResultCache, hist *HistoryStore,
	id string, st StreamState) error {
	var sh *streamHistory
	if st.History.Seq > hist.Seq(id) {
		var err error
		if sh, err = hist.load(&st.History); err != nil {
			return fmt.Errorf("install %q: %w: %w", id, engine.ErrBadState, err)
		}
	}
	if err := eng.Restore(id, bytes.NewReader(st.Online)); err != nil {
		return err
	}
	cache.Restore(id, st.Cache)
	if sh != nil {
		hist.m.Store(id, sh)
	}
	return nil
}

// StreamRecord is one stream's entry in a record stream (durable's codec),
// the encoding predictd's snapshot and the cluster's warm handoff share.
// Field names are the format: gob matches them by name, and fields absent
// from the stream decode as zero.
type StreamRecord struct {
	ID    string
	State StreamState
	// Applied and Windows are the stream's dedup coverage, read under the
	// same shard lock as State. Only the handoff carries them; a snapshot's
	// header holds the whole dedup table.
	Applied uint64
	Windows map[string]SourceWindow
}

// bareRecord is a StreamRecord without its dedup coverage. A stream
// written without coverage (predictd's snapshot) encodes this type, so its
// files hold no type descriptors for fields they always leave empty, and
// they decode into StreamRecord all the same.
type bareRecord struct {
	ID    string
	State StreamState
}

// RecordWriter writes a record stream of StreamRecords; read one back with
// durable.NewStreamReader[StreamRecord].
type RecordWriter struct {
	enc  *gob.Encoder
	buf  bytes.Buffer // the predictor bytes of the record being written
	rec  StreamRecord
	bare bareRecord
}

// NewRecordWriter opens a record stream on w and writes its header.
func NewRecordWriter(w io.Writer, hdr any) (*RecordWriter, error) {
	rw := &RecordWriter{enc: gob.NewEncoder(w)}
	if err := rw.enc.Encode(hdr); err != nil {
		return nil, fmt.Errorf("encode header: %w", err)
	}
	return rw, nil
}

// WriteStream captures stream id and writes its record outside the shard
// lock. With dedup non-nil the record carries the stream's coverage.
func (rw *RecordWriter) WriteStream(eng *engine.Engine, cache *ResultCache,
	hist *HistoryStore, dedup *Dedup, id string) error {
	rw.rec = StreamRecord{ID: id}
	var also func()
	if dedup != nil {
		also = func() { rw.rec.Windows, rw.rec.Applied, _ = dedup.StreamState(id) }
	}
	var err error
	if rw.rec.State, err = CaptureStream(eng, cache, hist, id, &rw.buf, also); err != nil {
		return err
	}
	var v any = &rw.rec
	if dedup == nil {
		rw.bare = bareRecord{ID: id, State: rw.rec.State}
		v = &rw.bare
	}
	if err := rw.enc.Encode(v); err != nil {
		return fmt.Errorf("encode %s: %w", id, err)
	}
	return nil
}
