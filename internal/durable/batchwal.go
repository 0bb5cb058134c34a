package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
)

// BatchWAL file format: an 8-byte magic header followed by variable-length
// records. Each record is [uint32 length][payload][crc32 of length+payload],
// little-endian. The payload is opaque — predictd logs one encoded ingest
// batch per record. The per-record checksum lets recovery tell a torn tail
// (crash mid-append) or a flipped bit from valid data: replay trusts exactly
// the prefix of records whose checksums verify, and the torn or corrupt tail
// is truncated away.
var batchWALMagic = [8]byte{'L', 'A', 'R', 'P', 'B', 'W', 'L', '1'}

// ErrWALFormat is returned by OpenBatchWAL when the file exists but does not
// start with the batch-WAL magic — it is some other file, or its header
// itself was corrupted. Callers should quarantine it and start a fresh log.
var ErrWALFormat = errors.New("durable: unrecognized WAL format")

// ErrRecordTooLarge is returned by Append for a payload over the record cap.
// Nothing is written, so the log stays usable.
var ErrRecordTooLarge = errors.New("durable: batch WAL record too large")

// MaxBatchRecord caps a single record's payload. Append refuses a larger
// payload, and on open a length field larger than this is treated as
// corruption rather than an allocation request.
const MaxBatchRecord = 16 << 20

// BatchWAL is an append-only log of opaque batch payloads. Appends are
// buffered by the OS; Sync makes everything appended so far durable. Callers
// serialize Append and TruncateRecords (predictd holds its commit lock
// across Append); Sync may run concurrently with Append, and covers at
// least every record whose Append returned before it was called.
type BatchWAL struct {
	f *os.File
	// ends[i] is the file offset just past record i, so a reader that finds
	// record i undecodable can truncate back to the last decodable one.
	ends []int64
	// scratch holds the framed record across Append calls so a steady-state
	// appender reaches one Write syscall with no per-record allocation.
	scratch []byte
}

// OpenBatchWAL opens the log as ScanBatchWAL does and returns its intact
// record payloads in append order, as sub-slices of the one buffer the log
// was read into, so the log is held in memory once while the caller keeps
// any of them.
func OpenBatchWAL(path string) (w *BatchWAL, recs [][]byte, truncated int64, err error) {
	if w, truncated, err = ScanBatchWAL(path); err != nil {
		return nil, nil, 0, err
	}
	if len(w.ends) == 0 {
		return w, nil, truncated, nil
	}
	base := int64(len(batchWALMagic))
	data := make([]byte, w.ends[len(w.ends)-1]-base)
	if _, err = w.f.ReadAt(data, base); err != nil {
		w.f.Close()
		return nil, nil, 0, fmt.Errorf("durable: read batch WAL: %w", err)
	}
	recs = make([][]byte, len(w.ends))
	start := 0
	for i, end := range w.ends {
		// Between the length header and the checksum, with clipped
		// capacity: an append to one record cannot overwrite the next.
		hi := int(end-base) - 4
		recs[i] = data[start+4 : hi : hi]
		start = hi + 4
	}
	return w, recs, truncated, nil
}

// ScanBatchWAL opens (or creates) a batch write-ahead log and checks it
// without keeping its payloads: it reads the log once through a small
// buffer, verifying each record's checksum and noting where it ends, so
// Record can read the records back one at a time. A torn or corrupt tail is
// truncated away — the records left are exactly what recovery may trust —
// and the log is positioned for appending. truncated reports how many bytes
// of bad tail were discarded. A file that does not start with the
// batch-WAL magic fails with ErrWALFormat; callers quarantine it and start
// fresh.
func ScanBatchWAL(path string) (w *BatchWAL, truncated int64, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("durable: open batch WAL: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	info, err := f.Stat()
	if err != nil {
		return nil, 0, fmt.Errorf("durable: stat batch WAL: %w", err)
	}
	if info.Size() == 0 {
		if _, err = f.Write(batchWALMagic[:]); err != nil {
			return nil, 0, fmt.Errorf("durable: write batch WAL header: %w", err)
		}
		if err = f.Sync(); err != nil {
			return nil, 0, fmt.Errorf("durable: sync batch WAL header: %w", err)
		}
		return &BatchWAL{f: f}, 0, nil
	}

	var magic [8]byte
	if _, rerr := io.ReadFull(f, magic[:]); rerr != nil || magic != batchWALMagic {
		err = fmt.Errorf("durable: %s: %w", path, ErrWALFormat)
		return nil, 0, err
	}
	w = &BatchWAL{f: f}
	// The file's size is known, so a record that would run past it is the
	// torn tail, and any read error is a real one.
	size, good := info.Size(), int64(len(batchWALMagic))
	r := bufio.NewReaderSize(f, 64<<10)
	var buf []byte
	for size-good >= RecordOverhead {
		buf = append(buf[:0], 0, 0, 0, 0)
		if _, err = io.ReadFull(r, buf); err != nil {
			return nil, 0, fmt.Errorf("durable: read batch WAL: %w", err)
		}
		n := int64(binary.LittleEndian.Uint32(buf))
		if n > MaxBatchRecord || good+RecordOverhead+n > size {
			break
		}
		buf = slices.Grow(buf, int(n)+4)[:RecordOverhead+n]
		if _, err = io.ReadFull(r, buf[4:]); err != nil {
			return nil, 0, fmt.Errorf("durable: read batch WAL: %w", err)
		}
		if _, _, ok := SplitRecord(buf, MaxBatchRecord); !ok {
			break
		}
		good += RecordOverhead + n
		w.ends = append(w.ends, good)
	}
	if truncated = size - good; truncated > 0 {
		if err = f.Truncate(good); err != nil {
			return nil, 0, fmt.Errorf("durable: truncate torn batch WAL tail: %w", err)
		}
		if err = f.Sync(); err != nil {
			return nil, 0, fmt.Errorf("durable: sync truncated batch WAL: %w", err)
		}
	}
	if _, err = f.Seek(0, io.SeekEnd); err != nil {
		return nil, 0, fmt.Errorf("durable: seek batch WAL end: %w", err)
	}
	return w, truncated, nil
}

// Len returns how many records the log holds.
func (w *BatchWAL) Len() int { return len(w.ends) }

// Record reads record i's payload from the file into buf, growing it as
// needed, and checks its checksum again. payload aliases bufOut and is
// valid until the next call with the same buffer. A record that no longer
// verifies fails with an error wrapping ErrRecord.
func (w *BatchWAL) Record(i int, buf []byte) (payload, bufOut []byte, err error) {
	if i < 0 || i >= len(w.ends) {
		return nil, buf, fmt.Errorf("durable: record %d of %d", i, len(w.ends))
	}
	start := int64(len(batchWALMagic))
	if i > 0 {
		start = w.ends[i-1]
	}
	n := int(w.ends[i] - start)
	buf = slices.Grow(buf[:0], n)[:n]
	if _, err := w.f.ReadAt(buf, start); err != nil {
		return nil, buf, fmt.Errorf("durable: read batch WAL record %d: %w", i, err)
	}
	payload, _, ok := SplitRecord(buf, MaxBatchRecord)
	if !ok {
		return nil, buf, fmt.Errorf("%w: batch WAL record %d no longer verifies", ErrRecord, i)
	}
	return payload, buf, nil
}

// Append writes one record. The record is durable only after the next Sync.
func (w *BatchWAL) Append(payload []byte) error {
	if len(payload) > MaxBatchRecord {
		return fmt.Errorf("%w: %d bytes exceeds %d", ErrRecordTooLarge, len(payload), MaxBatchRecord)
	}
	// A short write here leaves torn bytes at the end of the file. Records
	// appended after them are unreachable: the next open stops at the first
	// bad checksum and truncates everything from there. So after a failed
	// Append the caller must append nothing more until it has reopened the
	// log.
	w.scratch = AppendRecord(w.scratch[:0], payload)
	if _, err := w.f.Write(w.scratch); err != nil {
		return fmt.Errorf("durable: append batch WAL record: %w", err)
	}
	prev := int64(len(batchWALMagic))
	if n := len(w.ends); n > 0 {
		prev = w.ends[n-1]
	}
	w.ends = append(w.ends, prev+4+int64(len(payload))+4)
	return nil
}

// Sync fsyncs the log: every record appended so far survives a crash.
func (w *BatchWAL) Sync() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("durable: sync batch WAL: %w", err)
	}
	return nil
}

// TruncateRecords discards every record after the first keep ones — the
// recovery path for a record whose checksum verifies but whose payload no
// longer decodes (a format change or deeper corruption): truncate back to
// the last usable record and carry on, exactly like a torn tail.
// TruncateRecords(0) keeps only the header — called after a snapshot has
// captured everything the log was protecting.
func (w *BatchWAL) TruncateRecords(keep int) error {
	if keep < 0 || keep > len(w.ends) {
		return fmt.Errorf("durable: truncate to %d of %d records", keep, len(w.ends))
	}
	end := int64(len(batchWALMagic))
	if keep > 0 {
		end = w.ends[keep-1]
	}
	if err := w.f.Truncate(end); err != nil {
		return fmt.Errorf("durable: truncate batch WAL: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("durable: seek batch WAL: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("durable: sync truncated batch WAL: %w", err)
	}
	w.ends = w.ends[:keep]
	return nil
}

// Close syncs and closes the log.
func (w *BatchWAL) Close() error {
	syncErr := w.f.Sync()
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("durable: close batch WAL: %w", err)
	}
	if syncErr != nil {
		return fmt.Errorf("durable: sync batch WAL on close: %w", syncErr)
	}
	return nil
}
