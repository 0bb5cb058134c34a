package main

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/acis-lab/larpredictor/internal/core"
	"github.com/acis-lab/larpredictor/internal/durable"
	"github.com/acis-lab/larpredictor/internal/engine"
	"github.com/acis-lab/larpredictor/internal/obs"
	"github.com/acis-lab/larpredictor/internal/server"
)

// Durable state is one file, <dir>/predictd.snap, written via
// durable.WriteFileAtomic so a crash mid-snapshot leaves the previous
// complete snapshot in place. It is one durable frame (magic "LARPRED2",
// payload, CRC32-IEEE footer) whose payload is a single gob stream: a
// snapHeader, then exactly header.Streams snapRecords, then nothing. Save
// captures, encodes and writes one stream at a time, and restore verifies
// the whole frame's checksum first and then decodes and applies one record
// at a time, so neither holds more than one stream's encoded state beside
// the live engine. A damaged file is quarantined and the daemon cold-starts;
// a verified file that does not decode is a writer bug and fails startup,
// since by then the snapshot may be partly applied. Any other magic,
// including the whole-map "LARPRED1" format of earlier releases, is
// quarantined like damage.
//
// Under the default snapshot durability mode there is no WAL: predictd's
// clients own their data and can re-send the window since the last
// snapshot, so the contract is "latest snapshot wins". Under
// -durability=wal the header additionally carries the idempotency table,
// and <dir>/predictd.wal covers every ack made since it was written (see
// wal.go).

const snapMagic = "LARPRED2"

// snapHeader opens the snapshot's gob stream.
type snapHeader struct {
	// Fingerprint digests the predictor-shaping options; a snapshot written
	// under one fingerprint is not restored under another.
	Fingerprint string
	// Dedup is the idempotency table at capture time (WAL mode only). A
	// snapshot taken without it restores with an empty table, which is
	// exactly right for snapshot-mode files.
	Dedup server.DedupState
	// Streams is how many snapRecords follow.
	Streams int
}

// snapRecord is one stream's entry in the snapshot. State is a named field:
// gob would silently drop an embedded unexported struct.
type snapRecord struct {
	ID    string
	State streamState
}

// streamState is one stream's persisted state: the core codec's framed
// predictor bytes plus the serving snapshot (latest observation + forecast)
// so a restarted daemon answers GET /v1/forecast before any new sample, and
// the forecast-history rings so range queries and feed resume cursors
// survive the restart too. History is absent in pre-history snapshots (gob
// leaves it zero) and ignored by older binaries — the field is
// backward-compatible in both directions.
type streamState struct {
	Online  []byte
	Cache   server.Snapshot
	History server.HistoryState
}

// snapStore owns a predictd state directory.
type snapStore struct {
	dir         string
	fingerprint string

	// Durability instruments; nil-safe when no registry was attached.
	snapshots   *obs.Counter
	restored    *obs.Counter
	quarantines *obs.Counter
}

// fingerprintOptions digests every option that shapes predictor state. The
// per-stream core codec carries its own config fingerprint too; this
// coarse check just lets the daemon log one clear line instead of N
// mismatch warnings.
func fingerprintOptions(o options) string {
	return fmt.Sprintf("window=%d train=%d audit=%d threshold=%g",
		o.window, o.trainSize, o.auditWin, o.threshold)
}

// openSnapStore creates the state directory if needed and binds durability
// counters on reg.
func openSnapStore(dir, fingerprint string, reg *obs.Registry) (*snapStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("state dir: %w", err)
	}
	st := &snapStore{dir: dir, fingerprint: fingerprint}
	if reg != nil {
		st.snapshots = reg.Counter1("larpredictor_snapshots_total",
			"Completed durable snapshots.")
		st.restored = reg.Counter1("larpredictor_pipelines_recovered_total",
			"Streams whose predictor state was restored on warm restart.")
		st.quarantines = reg.Counter1("larpredictor_state_quarantines_total",
			"Damaged state files quarantined during warm restart.")
	}
	return st, nil
}

func (st *snapStore) path() string { return filepath.Join(st.dir, "predictd.snap") }

// save captures every stream's predictor state and serving snapshot and
// writes one atomic checksummed file, one stream at a time: each stream is
// captured into a reused buffer, then encoded and written outside its shard
// lock. dedup, when non-nil, is the idempotency table to persist alongside
// (WAL mode); hist, when non-nil, contributes each stream's
// forecast-history state.
func (st *snapStore) save(eng *engine.Engine, cache *server.ResultCache,
	hist *server.HistoryStore, dedup *server.Dedup) error {
	hdr := snapHeader{Fingerprint: st.fingerprint}
	if dedup != nil {
		hdr.Dedup = dedup.State()
	}
	var ids []string
	eng.Each(func(id string, _ engine.StreamStats) { ids = append(ids, id) })
	hdr.Streams = len(ids)
	err := durable.WriteFileAtomic(st.path(), func(w io.Writer) error {
		bw := bufio.NewWriterSize(w, 64<<10)
		fw, err := durable.NewFrameWriter(bw, snapMagic)
		if err != nil {
			return err
		}
		enc := gob.NewEncoder(fw)
		if err := enc.Encode(&hdr); err != nil {
			return fmt.Errorf("encode snapshot header: %w", err)
		}
		var online bytes.Buffer
		for _, id := range ids {
			rec, err := captureStream(eng, cache, hist, id, &online)
			if err != nil {
				return err
			}
			if err := enc.Encode(&rec); err != nil {
				return fmt.Errorf("encode %s: %w", id, err)
			}
		}
		if err := fw.Close(); err != nil {
			return err
		}
		return bw.Flush()
	})
	if err != nil {
		return err
	}
	st.snapshots.Inc()
	return nil
}

// captureStream reads one stream's persisted state inside eng.Do, which
// holds the stream's shard lock: the predictor bytes, the cache entry, and
// the history rings describe the same step, because OnResult (the cache and
// history writer) runs under that same lock. The record's Online bytes
// alias buf and are valid until its next use.
func captureStream(eng *engine.Engine, cache *server.ResultCache, hist *server.HistoryStore,
	id string, buf *bytes.Buffer) (snapRecord, error) {
	rec := snapRecord{ID: id}
	var err error
	found := eng.Do(id, func(o *core.Online) {
		buf.Reset()
		if err = o.SaveState(buf); err != nil {
			return
		}
		rec.State.Online = buf.Bytes()
		rec.State.Cache, _ = cache.Latest(id)
		if hist != nil {
			rec.State.History, _ = hist.State(id)
		}
	})
	switch {
	case err != nil:
		return rec, fmt.Errorf("save %s: %w", id, err)
	case !found:
		// The engine never unregisters a stream, so this is a bug.
		return rec, fmt.Errorf("save %s: stream vanished during the snapshot", id)
	}
	return rec, nil
}

// restore performs the warm restart: it verifies the snapshot (quarantining
// a damaged one and cold-starting), registers each stream's restored
// predictor with the engine, and primes the serving cache so the first
// forecast read needs no new samples. It returns how many streams were
// restored. logw receives one line per abnormal event.
// dedup, when non-nil, receives the snapshot's idempotency table so WAL
// replay and client retries dedup against everything the snapshot covers.
// hist, when non-nil, is primed with each stream's forecast-history rings;
// a snapshot written under a different history shape clamps on restore
// (history sizing is intentionally outside the fingerprint).
func (st *snapStore) restore(eng *engine.Engine, cache *server.ResultCache,
	hist *server.HistoryStore, newStream func(id string) (*core.Online, error),
	dedup *server.Dedup, logw io.Writer) (int, error) {
	path := st.path()
	fr, err := durable.OpenFrame(path, snapMagic)
	switch {
	case os.IsNotExist(err):
		return 0, nil // cold: nothing checkpointed yet
	case err != nil:
		st.quarantineAndLog(path, err, logw)
		return 0, nil
	}
	defer fr.Close()
	// The checksum verified, so a payload that does not decode was written
	// wrong, not damaged on disk. Cold-starting would be unsafe once the
	// dedup table is restored, so startup fails and the file stays put.
	undecodable := func(what string, err error) error {
		return fmt.Errorf("snapshot %s: %s does not decode: %w", path, what, err)
	}
	dec := gob.NewDecoder(bufio.NewReaderSize(fr, 64<<10))
	var hdr snapHeader
	if err := dec.Decode(&hdr); err != nil {
		return 0, undecodable("the header", err)
	}
	if hdr.Fingerprint != st.fingerprint {
		// Valid snapshot from another configuration: not damage, just
		// unusable. Cold start and overwrite it at the next snapshot.
		fmt.Fprintf(logw, "predictd: snapshot was written by a different configuration (have %q, want %q), cold starting\n",
			hdr.Fingerprint, st.fingerprint)
		return 0, nil
	}
	if dedup != nil {
		dedup.Restore(hdr.Dedup)
	}
	hdr.Dedup = server.DedupState{} // garbage before the streams arrive

	restored := 0
	rec := new(snapRecord)
	for i := 0; i < hdr.Streams; i++ {
		// Zeroed each time: gob leaves fields absent from the stream (zero
		// values) untouched, so the previous stream's state would leak.
		*rec = snapRecord{}
		if err := dec.Decode(rec); err != nil {
			return restored, undecodable(fmt.Sprintf("record %d of %d", i, hdr.Streams), err)
		}
		id := rec.ID
		online, err := newStream(id)
		if err != nil {
			return restored, fmt.Errorf("restore %s: %w", id, err)
		}
		if err := online.RestoreState(bytes.NewReader(rec.State.Online)); err != nil {
			if errors.Is(err, core.ErrStateMismatch) {
				fmt.Fprintf(logw, "predictd: %s: predictor state mismatch, cold starting stream: %v\n", id, err)
				continue
			}
			fmt.Fprintf(logw, "predictd: %s: unreadable predictor state, cold starting stream: %v\n", id, err)
			continue
		}
		if err := eng.Register(id, online); err != nil {
			return restored, fmt.Errorf("restore %s: %w", id, err)
		}
		cache.Restore(id, rec.State.Cache)
		if hist != nil && rec.State.History.Seq > 0 {
			hist.Restore(id, rec.State.History)
		}
		restored++
		st.restored.Inc()
	}
	switch err := dec.Decode(&snapRecord{}); {
	case err == nil:
		return restored, fmt.Errorf("snapshot %s: holds more records than its header's %d", path, hdr.Streams)
	case !errors.Is(err, io.EOF):
		return restored, undecodable("the bytes after its last record", err)
	}
	return restored, nil
}

// quarantineAndLog moves a damaged state file aside and counts it.
func (st *snapStore) quarantineAndLog(path string, cause error, logw io.Writer) {
	st.quarantines.Inc()
	moved, err := durable.Quarantine(path)
	if err != nil {
		fmt.Fprintf(logw, "predictd: quarantine %s failed: %v (cause: %v)\n", path, err, cause)
		return
	}
	fmt.Fprintf(logw, "predictd: quarantined %s -> %s: %v\n", path, moved, cause)
}
