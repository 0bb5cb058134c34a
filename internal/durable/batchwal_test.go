package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func openBatch(t *testing.T, path string) (*BatchWAL, [][]byte, int64) {
	t.Helper()
	w, recs, truncated, err := OpenBatchWAL(path)
	if err != nil {
		t.Fatalf("OpenBatchWAL: %v", err)
	}
	return w, recs, truncated
}

func TestBatchWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.wal")
	w, recs, _ := openBatch(t, path)
	if len(recs) != 0 {
		t.Fatalf("fresh WAL returned %d records", len(recs))
	}
	payloads := [][]byte{[]byte("one"), {}, []byte("three-three-three"), {0, 1, 2, 255}}
	for _, p := range payloads {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if len(w.ends) != len(payloads) {
		t.Errorf("%d records, want %d", len(w.ends), len(payloads))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, recs, truncated := openBatch(t, path)
	defer w2.Close()
	if truncated != 0 {
		t.Errorf("clean reopen truncated %d bytes", truncated)
	}
	if len(recs) != len(payloads) {
		t.Fatalf("reopen returned %d records, want %d", len(recs), len(payloads))
	}
	for i, p := range payloads {
		if !bytes.Equal(recs[i], p) {
			t.Errorf("record %d = %q, want %q", i, recs[i], p)
		}
	}
}

func TestBatchWALTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.wal")
	w, _, _ := openBatch(t, path)
	for i := 0; i < 3; i++ {
		if err := w.Append([]byte{byte(i), byte(i), byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last record mid-payload.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	w2, recs, truncated := openBatch(t, path)
	if len(recs) != 2 || truncated == 0 {
		t.Fatalf("torn tail: %d records (want 2), truncated %d bytes (want >0)", len(recs), truncated)
	}
	// The log must be appendable again after truncation.
	if err := w2.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	// The truncation is persistent: the reopen sees a clean log.
	w3, recs, truncated := openBatch(t, path)
	defer w3.Close()
	if truncated != 0 {
		t.Errorf("reopen after truncation dropped %d more bytes", truncated)
	}
	if len(recs) != 3 || string(recs[2]) != "after" {
		t.Fatalf("post-truncation append lost: %d records, tail %q", len(recs), recs[len(recs)-1])
	}
}

func TestBatchWALBitFlipStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.wal")
	w, _, _ := openBatch(t, path)
	for i := 0; i < 4; i++ {
		if err := w.Append([]byte{1, 2, 3, 4, byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit inside record 1's payload (records are 13 bytes each here).
	data[8+13+6] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, recs, truncated := openBatch(t, path)
	defer w2.Close()
	if len(recs) != 1 {
		t.Errorf("bit flip in record 1: replay returned %d records, want 1", len(recs))
	}
	if truncated == 0 {
		t.Error("bit flip: nothing truncated")
	}
}

func TestBatchWALWrongMagicRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.wal")
	if err := os.WriteFile(path, []byte("NOTAWAL0 some bytes that are not a log"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err := OpenBatchWAL(path)
	if !errors.Is(err, ErrWALFormat) {
		t.Fatalf("foreign file: err = %v, want ErrWALFormat", err)
	}
	// A header truncated mid-magic is equally unrecognizable.
	if err := os.WriteFile(path, batchWALMagic[:4], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := OpenBatchWAL(path); !errors.Is(err, ErrWALFormat) {
		t.Fatalf("short header: err = %v, want ErrWALFormat", err)
	}
}

func TestBatchWALResetAndTruncateRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.wal")
	w, _, _ := openBatch(t, path)
	for i := 0; i < 5; i++ {
		if err := w.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.TruncateRecords(2); err != nil {
		t.Fatal(err)
	}
	if len(w.ends) != 2 {
		t.Fatalf("after TruncateRecords(2): %d records", len(w.ends))
	}
	if err := w.Append([]byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, _ := openBatch(t, path)
	if len(recs) != 3 || string(recs[2]) != "new" {
		t.Fatalf("truncate+append: records = %q", recs)
	}

	w2, _, _ := openBatch(t, path)
	if err := w2.TruncateRecords(0); err != nil {
		t.Fatal(err)
	}
	if err := w2.Append([]byte("only")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, _ = openBatch(t, path)
	if len(recs) != 1 || string(recs[0]) != "only" {
		t.Fatalf("after reset: records = %q", recs)
	}

	w3, _, _ := openBatch(t, path)
	defer w3.Close()
	if err := w3.TruncateRecords(5); err == nil {
		t.Error("TruncateRecords beyond record count succeeded")
	}
}

func TestBatchWALHugeLengthTreatedAsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.wal")
	w, _, _ := openBatch(t, path)
	if err := w.Append([]byte("good")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Append a record header claiming a payload far beyond the cap.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0xff, 0xff, 0x7f, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, recs, truncated := openBatch(t, path)
	defer w2.Close()
	if len(recs) != 1 || truncated == 0 {
		t.Fatalf("huge length: %d records (want 1), truncated %d", len(recs), truncated)
	}
}

// TestScanBatchWALReadsRecords: ScanBatchWAL keeps no payloads; Record reads
// each one back from the file, and a record damaged after the scan fails
// with ErrRecord instead of returning bytes the scan did not verify.
func TestScanBatchWALReadsRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.wal")
	w, _, _ := openBatch(t, path)
	payloads := [][]byte{[]byte("one"), {}, bytes.Repeat([]byte("x"), 100<<10), []byte("four")}
	for _, p := range payloads {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	s, truncated, err := ScanBatchWAL(path)
	if err != nil || truncated != 0 {
		t.Fatalf("ScanBatchWAL: truncated %d, %v", truncated, err)
	}
	defer s.Close()
	if s.Len() != len(payloads) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(payloads))
	}
	var buf []byte
	for i, p := range payloads {
		var got []byte
		if got, buf, err = s.Record(i, buf); err != nil || !bytes.Equal(got, p) {
			t.Fatalf("Record(%d) = %.20q, %v; want %.20q", i, got, err, p)
		}
	}
	if _, _, err := s.Record(len(payloads), buf); err == nil {
		t.Error("Record past the end succeeded")
	}

	// Flip a byte of the last payload behind the scan's back.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-6] ^= 1
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Record(len(payloads)-1, buf); !errors.Is(err, ErrRecord) {
		t.Errorf("Record of a damaged record: %v, want ErrRecord", err)
	}
}
