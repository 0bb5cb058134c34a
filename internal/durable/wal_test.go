package durable

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// These tests drive BatchWAL with one fixed-size observation per record
// (a unix timestamp and a value), the shape a per-series observation log
// would store. Because every record has the same size, they can pin exact
// byte counts for truncation, which the variable-payload tests in
// batchwal_test.go leave loose.

type obs struct {
	TS    int64
	Value float64
}

const obsSize = 16

// obsRecordSize is the on-disk size of one framed observation.
const obsRecordSize = RecordOverhead + obsSize

func encodeObs(o obs) []byte {
	var b [obsSize]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(o.TS))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(o.Value))
	return b[:]
}

func decodeObs(t *testing.T, recs [][]byte) []obs {
	t.Helper()
	out := make([]obs, len(recs))
	for i, r := range recs {
		if len(r) != obsSize {
			t.Fatalf("record %d is %d bytes, want %d", i, len(r), obsSize)
		}
		out[i] = obs{
			TS:    int64(binary.LittleEndian.Uint64(r[:8])),
			Value: math.Float64frombits(binary.LittleEndian.Uint64(r[8:])),
		}
	}
	return out
}

func openFresh(t *testing.T, path string) *BatchWAL {
	t.Helper()
	w, recs, truncated, err := OpenBatchWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || truncated != 0 {
		t.Fatalf("fresh WAL replayed %d records, truncated %d", len(recs), truncated)
	}
	return w
}

// reopen opens path, closes the log again and returns what recovery saw.
func reopen(t *testing.T, path string) ([]obs, int64, error) {
	t.Helper()
	w, recs, truncated, err := OpenBatchWAL(path)
	if err != nil {
		return nil, 0, err
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return decodeObs(t, recs), truncated, nil
}

func appendObs(t *testing.T, w *BatchWAL, o obs) {
	t.Helper()
	if err := w.Append(encodeObs(o)); err != nil {
		t.Fatal(err)
	}
}

func TestWALAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.wal")
	w := openFresh(t, path)
	want := []obs{{TS: 100, Value: 1.5}, {TS: 160, Value: -2.25}, {TS: 220, Value: 0}}
	for _, o := range want {
		appendObs(t, w, o)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, raw, truncated, err := OpenBatchWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if truncated != 0 {
		t.Fatalf("clean log truncated %d bytes", truncated)
	}
	recs := decodeObs(t, raw)
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if r != want[i] {
			t.Fatalf("record %d: %+v want %+v", i, r, want[i])
		}
	}
	// Appending after reopen extends the log.
	appendObs(t, w2, obs{TS: 280, Value: 9})
	if err := w2.Sync(); err != nil {
		t.Fatal(err)
	}
	recs, _, err = reopen(t, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 || recs[3].TS != 280 {
		t.Fatalf("after reopen-append: %+v", recs)
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.wal")
	w := openFresh(t, path)
	for i := 0; i < 3; i++ {
		appendObs(t, w, obs{TS: int64(i) * 60, Value: float64(i)})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash mid-append: the first 7 bytes of a fourth record land on the tail.
	torn := AppendRecord(nil, encodeObs(obs{TS: 180, Value: 3}))[:7]
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	recs, truncated, err := reopen(t, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want 3", len(recs))
	}
	if truncated != 7 {
		t.Fatalf("truncated %d bytes, want 7", truncated)
	}
	// The truncation is persistent: a further reopen sees a clean log.
	recs, truncated, err = reopen(t, path)
	if err != nil || len(recs) != 3 || truncated != 0 {
		t.Fatalf("second reopen: %d records, %d truncated, err %v", len(recs), truncated, err)
	}
}

func TestWALBitFlipStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.wal")
	w := openFresh(t, path)
	for i := 0; i < 4; i++ {
		appendObs(t, w, obs{TS: int64(i) * 60, Value: float64(i)})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a bit in the value of record 2 (0-indexed): replay must stop at
	// record 2 and discard it and everything after.
	off := int64(len(batchWALMagic)) + 2*obsRecordSize + 4 + 10
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[off] ^= 1 << 3
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, truncated, err := reopen(t, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("replayed %d records past a bit flip, want 2", len(recs))
	}
	if truncated != 2*obsRecordSize {
		t.Fatalf("truncated %d bytes, want %d", truncated, 2*obsRecordSize)
	}
}

func TestWALBadHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.wal")
	if err := os.WriteFile(path, []byte("not a WAL at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := OpenBatchWAL(path); !errors.Is(err, ErrWALFormat) {
		t.Fatalf("bad header error = %v, want ErrWALFormat", err)
	}
	// A header truncated mid-magic is equally unrecognizable.
	if err := os.WriteFile(path, batchWALMagic[:4], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := OpenBatchWAL(path); !errors.Is(err, ErrWALFormat) {
		t.Fatalf("short header error = %v, want ErrWALFormat", err)
	}
}

func TestWALReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.wal")
	w := openFresh(t, path)
	for i := 0; i < 5; i++ {
		appendObs(t, w, obs{TS: int64(i), Value: 1})
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	// Records appended after a reset are the only ones replayed.
	appendObs(t, w, obs{TS: 99, Value: 42})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, truncated, err := reopen(t, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0] != (obs{TS: 99, Value: 42}) || truncated != 0 {
		t.Fatalf("after reset: %+v (truncated %d)", recs, truncated)
	}
}
