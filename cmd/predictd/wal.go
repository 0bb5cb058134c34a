package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"path/filepath"
	"slices"
	"sync"

	"github.com/acis-lab/larpredictor/internal/durable"
	"github.com/acis-lab/larpredictor/internal/engine"
	"github.com/acis-lab/larpredictor/internal/obs"
	"github.com/acis-lab/larpredictor/internal/server"
)

// WAL durability mode makes the 202 ack a real promise: every ingest batch
// is deduplicated against the idempotency table, appended to a CRC-framed
// batch WAL, and group-commit fsynced before any sample is enqueued — so a
// kill -9 after the ack can never lose the batch. Restart restores the last
// snapshot, then replays the WAL through the normal engine ingest path
// (torn or undecodable tails are truncated away, a foreign file is
// quarantined, exactly like monitord's recovery). A completed snapshot
// truncates the WAL, since everything it protected is now in the snapshot.
//
// Group commit is leader/follower: the first committer that finds its
// appends not yet durable runs the fsync itself, and every append that lands
// while it runs shares the next one. The fsync's own duration is the commit
// window, so a lone batch waits for one fsync and a busy log amortizes each
// fsync over everything appended meanwhile.
//
// A failed append or fsync poisons the store: that commit and every later
// one fail with the first error until restart, and no snapshot is taken.
// After a failed fsync the kernel may have dropped the dirty pages, so a
// later successful fsync proves nothing about them; after a short write,
// later records would land behind torn bytes that recovery stops at. A
// restart recovers from the last snapshot plus the WAL's intact prefix.
//
// Locking: request-path commits hold mu.RLock across dedup+append+enqueue;
// the snapshot path holds mu.Lock across drain+capture+reset, so no batch
// can land between "in the snapshot" and "in the WAL" — each acked sample
// is durably in exactly one of the two. commitMu additionally serializes
// dedup-mark+append so a concurrent duplicate (a client retrying a batch
// whose first send is still in flight) can never pass the dedup check
// twice; a mark only survives commitMu release if its record was appended.

// walLog is the part of durable.BatchWAL that walStore drives; tests
// substitute a fake to inject append and fsync failures.
type walLog interface {
	Append(payload []byte) error
	Sync() error
	Len() int
	Record(i int, buf []byte) (payload, bufOut []byte, err error)
	TruncateRecords(keep int) error
	Close() error
}

// walStore owns predictd's write-ahead log, idempotency table, and group
// commit.
type walStore struct {
	mu       sync.RWMutex // RLock: commit path; Lock: snapshot capture+reset
	commitMu sync.Mutex   // serializes dedup marks with WAL appends; guards the group-commit state
	synced   *sync.Cond   // on commitMu: an fsync finished
	wal      walLog
	dedup    *server.Dedup

	// Group-commit state, guarded by commitMu: records appended, records
	// covered by the last completed fsync, whether a leader is fsyncing,
	// and the first append or fsync failure.
	appended, durable uint64
	syncing           bool
	err               error
	// rec is the record being appended, reused across commits under
	// commitMu.
	rec []byte

	appends     *obs.Counter
	dedupHits   *obs.Counter
	replayed    *obs.Counter
	quarantines *obs.Counter
}

func walPath(dir string) string { return filepath.Join(dir, "predictd.wal") }

// openWALStore opens (or creates) the state directory's WAL and checks its
// records, which stay on disk until replay reads them. A file that is not a
// predictd WAL is quarantined and a fresh log started; a torn tail is
// truncated.
func openWALStore(dir string, reg *obs.Registry, logw io.Writer) (*walStore, error) {
	ws := &walStore{dedup: server.NewDedup()}
	ws.synced = sync.NewCond(&ws.commitMu)
	if reg != nil {
		ws.appends = reg.Counter1("predictd_wal_appends_total",
			"Ingest batches appended to the write-ahead log.")
		ws.dedupHits = reg.Counter1("predictd_dedup_hits_total",
			"Keyed samples skipped as already-applied duplicates.")
		ws.replayed = reg.Counter1("predictd_wal_replayed_records_total",
			"WAL records replayed through the engine on warm restart.")
		ws.quarantines = reg.Counter1("predictd_wal_quarantines_total",
			"WAL files quarantined or tails truncated during recovery.")
	}
	path := walPath(dir)
	w, truncated, err := durable.ScanBatchWAL(path)
	if errors.Is(err, durable.ErrWALFormat) {
		ws.quarantines.Inc()
		moved, qerr := durable.Quarantine(path)
		if qerr != nil {
			return nil, fmt.Errorf("quarantine foreign WAL: %w", qerr)
		}
		fmt.Fprintf(logw, "predictd: quarantined %s -> %s: %v\n", path, moved, err)
		w, truncated, err = durable.ScanBatchWAL(path)
	}
	if err != nil {
		return nil, err
	}
	if truncated > 0 {
		ws.quarantines.Inc()
		fmt.Fprintf(logw, "predictd: truncated %d bytes of torn WAL tail from %s\n", truncated, path)
	}
	ws.wal = w
	return ws, nil
}

// ingest is the request-path commit, wired as server.Config.Ingest: dedup,
// durable append, group-commit fsync, then the normal engine enqueue. When
// it returns without error the batch is on disk — the 202 the handler sends
// is crash-safe. That holds for deduplicated samples too: a retry whose
// first attempt is still waiting for its fsync waits for the same fsync.
func (ws *walStore) ingest(eng *engine.Engine, batch []server.KeyedSample) (accepted, deduped int, err error) {
	ws.mu.RLock()
	defer ws.mu.RUnlock()

	ws.commitMu.Lock()
	if ws.err != nil {
		ws.commitMu.Unlock()
		return 0, 0, ws.err
	}
	fresh := make([]server.KeyedSample, 0, len(batch))
	for _, ks := range batch {
		if ks.Source != "" && ks.Seq != 0 && !ws.dedup.Apply(ks.ID, ks.Source, ks.Seq) {
			deduped++
			ws.dedupHits.Inc()
			continue
		}
		fresh = append(fresh, ks)
	}
	if len(fresh) > 0 {
		// The record's size is known before it is built, so an oversized
		// batch is refused without allocating it: the source repeats in
		// every sample, so a record can be far larger than its request.
		var aerr error
		if walBatchSize(fresh) > durable.MaxBatchRecord {
			aerr = fmt.Errorf("%w: batch of %d samples exceeds %d bytes",
				durable.ErrRecordTooLarge, len(fresh), durable.MaxBatchRecord)
		} else {
			ws.rec = appendWALBatch(ws.rec[:0], fresh)
			aerr = ws.wal.Append(ws.rec)
		}
		if aerr != nil {
			// The batch did not commit: withdraw the marks so its keys stay
			// unapplied. Newest first: each withdrawal of an in-order run
			// then lowers the window's floor by one, where oldest first
			// would split the floor and leave seqs far below it applied.
			for i := len(fresh) - 1; i >= 0; i-- {
				if ks := fresh[i]; ks.Source != "" && ks.Seq != 0 {
					ws.dedup.Revert(ks.ID, ks.Source, ks.Seq)
				}
			}
			// An oversized record is refused before any byte is written;
			// any other failure may have left a torn tail.
			if !errors.Is(aerr, durable.ErrRecordTooLarge) {
				ws.err = aerr
			}
			ws.commitMu.Unlock()
			return 0, deduped, aerr
		}
		ws.appends.Inc()
		ws.appended++
	}
	// Wait for every append so far, not only this batch's: a deduplicated
	// sample may belong to a record that is not durable yet.
	serr := ws.awaitDurable(ws.appended)
	ws.commitMu.Unlock()
	if serr != nil {
		// Durability is unknown, so refuse the ack. The marks stay — the
		// record may well be on disk — and the store is poisoned, so no
		// retry is acked before a restart settles what the log holds.
		return 0, deduped, serr
	}
	if len(fresh) == 0 {
		return 0, deduped, nil
	}
	samples := make([]engine.Sample, len(fresh))
	for i, ks := range fresh {
		samples[i] = ks.Sample
	}
	accepted, err = eng.IngestBatch(samples)
	// Under the Block policy (which WAL mode requires) the only enqueue
	// failure is a closing engine; the batch is already durable, so replay
	// applies it after restart and the client's retry dedups cleanly.
	return accepted, deduped, err
}

// awaitDurable returns once an fsync covering the first n appended records
// has completed, or with the store's poisoning error. The first caller
// that finds no fsync running leads one, dropping commitMu only around the
// fsync so later appends queue behind it for the next. Called with
// commitMu held.
func (ws *walStore) awaitDurable(n uint64) error {
	for ws.durable < n {
		if ws.err != nil {
			return ws.err
		}
		if ws.syncing {
			ws.synced.Wait()
			continue
		}
		ws.syncing = true
		target := ws.appended
		ws.commitMu.Unlock()
		err := ws.wal.Sync()
		ws.commitMu.Lock()
		ws.syncing = false
		if err != nil {
			ws.err = err
		} else {
			ws.durable = target
		}
		ws.synced.Broadcast()
	}
	return nil
}

// replay feeds the log's records through the normal engine ingest path,
// reading and applying one at a time through reused buffers and marking
// idempotency keys as it goes, and drains the engine so restored forecasts
// are served before the listener opens. A record that no longer verifies
// or decodes ends the replay: the WAL is truncated back to the last good
// record, mirroring torn-tail recovery.
func (ws *walStore) replay(eng *engine.Engine, logw io.Writer) (records, samples int, err error) {
	var (
		buf     []byte
		batch   []server.KeyedSample
		enqueue []engine.Sample
	)
	for i, n := 0, ws.wal.Len(); i < n; i++ {
		var rec []byte
		rec, buf, err = ws.wal.Record(i, buf)
		if err == nil {
			batch, err = decodeWALBatch(rec, batch)
		}
		if err != nil {
			if !errors.Is(err, errWALDecode) && !errors.Is(err, durable.ErrRecord) {
				return records, samples, err
			}
			ws.quarantines.Inc()
			fmt.Fprintf(logw, "predictd: WAL record %d undecodable (%v); truncating %d trailing records\n",
				i, err, n-i)
			if terr := ws.wal.TruncateRecords(i); terr != nil {
				return records, samples, terr
			}
			break
		}
		enqueue = enqueue[:0]
		for _, ks := range batch {
			if ks.Source != "" && ks.Seq != 0 && !ws.dedup.Apply(ks.ID, ks.Source, ks.Seq) {
				continue // already covered by the snapshot or an earlier record
			}
			enqueue = append(enqueue, ks.Sample)
		}
		if len(enqueue) > 0 {
			if _, ierr := eng.IngestBatch(enqueue); ierr != nil {
				return records, samples, fmt.Errorf("replay record %d: %w", i, ierr)
			}
			samples += len(enqueue)
		}
		records++
		ws.replayed.Inc()
	}
	eng.Drain()
	return records, samples, nil
}

// snapshot captures a coherent snapshot+WAL pair. With new commits held
// out by the exclusive lock, the engine is drained so every WAL-covered
// sample is reflected in predictor state, the snapshot (including the
// idempotency table) is written atomically, and only then is the WAL
// reset: an acked sample is durably in the snapshot or the WAL at every
// instant, never neither. A poisoned store takes no snapshot: its table
// holds marks for records whose samples never reached the engine, and the
// reset would discard the only copy of those records.
func (ws *walStore) snapshot(st *snapStore, eng *engine.Engine, cache *server.ResultCache,
	hist *server.HistoryStore) error {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	// No commit runs under the exclusive lock, so err is stable here.
	if ws.err != nil {
		return fmt.Errorf("WAL failed, snapshot skipped until restart: %w", ws.err)
	}
	eng.Drain()
	if err := st.save(eng, cache, hist, ws.dedup); err != nil {
		return err
	}
	return ws.wal.TruncateRecords(0)
}

// close syncs and closes the log.
func (ws *walStore) close() error { return ws.wal.Close() }

// ---- WAL record codec ----

// Record payload: version byte, uvarint sample count, then per sample:
// uvarint stream length + bytes, zigzag-varint TS, 8-byte LE float bits,
// uvarint source length + bytes, uvarint seq. The framing layer already
// checksums the bytes; this codec only needs to be unambiguous and strict.
const walBatchVersion = 1

// maxWALBatchSamples caps a decoded batch; a count beyond it means the
// record is not ours even though the checksum verified.
const maxWALBatchSamples = 1 << 20

// walBatchSize returns the encoded size of batch. It stops counting once
// the size passes durable.MaxBatchRecord, so its result is exact only up
// to the cap.
func walBatchSize(batch []server.KeyedSample) int {
	size := 1 + uvarintLen(uint64(len(batch)))
	for _, ks := range batch {
		size += uvarintLen(uint64(len(ks.ID))) + len(ks.ID) +
			uvarintLen(zigzag(ks.TS)) + 8 +
			uvarintLen(uint64(len(ks.Source))) + len(ks.Source) +
			uvarintLen(ks.Seq)
		if size > durable.MaxBatchRecord {
			break
		}
	}
	return size
}

// uvarintLen is the length of binary.AppendUvarint's encoding of v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// zigzag maps v as binary.AppendVarint does before its uvarint encoding.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// appendWALBatch appends batch's record payload to dst.
func appendWALBatch(dst []byte, batch []server.KeyedSample) []byte {
	dst = slices.Grow(dst, walBatchSize(batch))
	dst = append(dst, walBatchVersion)
	dst = binary.AppendUvarint(dst, uint64(len(batch)))
	for _, ks := range batch {
		dst = binary.AppendUvarint(dst, uint64(len(ks.ID)))
		dst = append(dst, ks.ID...)
		dst = binary.AppendVarint(dst, ks.TS)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(ks.Value))
		dst = binary.AppendUvarint(dst, uint64(len(ks.Source)))
		dst = append(dst, ks.Source...)
		dst = binary.AppendUvarint(dst, ks.Seq)
	}
	return dst
}

var errWALDecode = errors.New("predictd: malformed WAL batch record")

// decodeWALBatch decodes a record payload into batch, reusing its backing
// array.
func decodeWALBatch(payload []byte, batch []server.KeyedSample) ([]server.KeyedSample, error) {
	if len(payload) == 0 || payload[0] != walBatchVersion {
		return nil, errWALDecode
	}
	p := payload[1:]
	count, n := binary.Uvarint(p)
	if n <= 0 || count > maxWALBatchSamples {
		return nil, errWALDecode
	}
	p = p[n:]
	// A sample needs at least 12 encoded bytes; a count the payload cannot
	// hold is corruption, caught here before it sizes an allocation.
	if count*12 > uint64(len(p)) {
		return nil, errWALDecode
	}
	readString := func() (string, bool) {
		l, n := binary.Uvarint(p)
		if n <= 0 || uint64(len(p)-n) < l {
			return "", false
		}
		s := string(p[n : n+int(l)])
		p = p[n+int(l):]
		return s, true
	}
	batch = slices.Grow(batch[:0], int(count))
	for i := uint64(0); i < count; i++ {
		var ks server.KeyedSample
		var ok bool
		if ks.ID, ok = readString(); !ok || ks.ID == "" {
			return nil, errWALDecode
		}
		ts, n := binary.Varint(p)
		if n <= 0 {
			return nil, errWALDecode
		}
		p = p[n:]
		if len(p) < 8 {
			return nil, errWALDecode
		}
		ks.TS = ts
		ks.Value = math.Float64frombits(binary.LittleEndian.Uint64(p))
		p = p[8:]
		if ks.Source, ok = readString(); !ok {
			return nil, errWALDecode
		}
		seq, n := binary.Uvarint(p)
		if n <= 0 {
			return nil, errWALDecode
		}
		p = p[n:]
		ks.Seq = seq
		batch = append(batch, ks)
	}
	if len(p) != 0 {
		return nil, errWALDecode
	}
	return batch, nil
}
