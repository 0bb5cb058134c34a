package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/acis-lab/larpredictor/internal/durable"
	"github.com/acis-lab/larpredictor/internal/engine"
	"github.com/acis-lab/larpredictor/internal/obs"
	"github.com/acis-lab/larpredictor/internal/server"
)

// Durable state is one file, <dir>/predictd.snap, written via
// durable.WriteFileAtomic so a crash mid-snapshot leaves the previous
// complete snapshot in place. It is one durable frame (magic "LARPRED2",
// payload, CRC32-IEEE footer) whose payload is a record stream (durable): a
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

// snapHeader opens the snapshot's record stream.
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

// snapRecord is one stream's entry in the snapshot, the record the
// cluster's warm handoff ships too. The snapshot writes it without its
// dedup fields: the header carries the whole table.
type snapRecord = server.StreamRecord

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

// save captures every stream's state and writes one atomic checksummed
// file, one stream at a time (server.RecordWriter): each stream is
// captured into a reused buffer, then encoded and written outside its shard
// lock. dedup, when non-nil, is the idempotency table to persist alongside
// (WAL mode).
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
		rw, err := server.NewRecordWriter(fw, &hdr)
		if err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		for _, id := range ids {
			if err := rw.WriteStream(eng, cache, hist, nil, id); err != nil {
				return fmt.Errorf("save: %w", err)
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

// restore performs the warm restart: it verifies the snapshot (quarantining
// a damaged one and cold-starting) and installs each stream's state
// (server.InstallStream) as soon as its record decodes
// (durable.StreamReader), so the first forecast and history reads need no
// new samples. It returns how many streams were restored. A record whose
// state does not load (engine.ErrBadState: predictor bytes that do not
// restore, or history naming more experts than the store holds) cold-starts
// that stream; any other install error fails startup. logw receives one line
// per abnormal event. dedup, when non-nil, receives the snapshot's
// idempotency table so WAL replay and client retries dedup against
// everything the snapshot covers. A snapshot written under a different
// history shape clamps on restore (history sizing is intentionally outside
// the fingerprint).
func (st *snapStore) restore(eng *engine.Engine, cache *server.ResultCache,
	hist *server.HistoryStore, dedup *server.Dedup, logw io.Writer) (int, error) {
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
	var hdr snapHeader
	rr, err := durable.NewStreamReader[snapRecord](bufio.NewReaderSize(fr, 64<<10), &hdr)
	if err != nil {
		return 0, fmt.Errorf("snapshot %s: %w", path, err)
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
	err = rr.ReadRecords(hdr.Streams, func(rec *snapRecord) error {
		switch err := server.InstallStream(eng, cache, hist, rec.ID, rec.State); {
		case errors.Is(err, engine.ErrBadState):
			// A record this configuration cannot load: cold-start the
			// stream. Any other error is the daemon's, so startup fails.
			fmt.Fprintf(logw, "predictd: %s: cold starting stream: %v\n", rec.ID, err)
			return nil
		case err != nil:
			return fmt.Errorf("restore %s: %w", rec.ID, err)
		}
		restored++
		st.restored.Inc()
		return nil
	})
	if err != nil {
		return restored, fmt.Errorf("snapshot %s: %w", path, err)
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
