package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpenWAL feeds arbitrary bytes as an on-disk batch WAL and checks that
// OpenBatchWAL never panics, never returns records it cannot vouch for, and
// always leaves a usable log behind. ScanBatchWAL over the same bytes must
// keep, and read back through Record, exactly the prefix of records a
// whole-buffer SplitRecord walk verifies, and truncate the rest.
func FuzzOpenWAL(f *testing.F) {
	f.Add([]byte{})
	f.Add(batchWALMagic[:])
	f.Add(append(batchWALMagic[:], "short"...))
	f.Add([]byte("XXXXXXXX"))
	// A valid one-record log.
	dir := f.TempDir()
	seedPath := filepath.Join(dir, "seed.wal")
	w, _, _, err := OpenBatchWAL(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	if err := w.Append([]byte("forty-two")); err != nil {
		f.Fatal(err)
	}
	w.Close()
	valid, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail

	appended := []byte{7, 0, 0xff}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		checkScan(t, data)
		w, recs, _, err := OpenBatchWAL(path)
		if err != nil {
			return // rejected outright (bad magic): fine
		}
		defer w.Close()
		// Whatever was recovered, the log must keep working: append a
		// record and read the whole thing back.
		if err := w.Append(appended); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		w2, recs2, truncated, err := OpenBatchWAL(path)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer w2.Close()
		if truncated != 0 {
			t.Fatalf("reopen truncated %d bytes of a clean log", truncated)
		}
		if len(recs2) != len(recs)+1 {
			t.Fatalf("reopen saw %d records, want %d", len(recs2), len(recs)+1)
		}
		for i, rec := range recs {
			if !bytes.Equal(recs2[i], rec) {
				t.Fatalf("record %d changed across reopen: %q != %q", i, recs2[i], rec)
			}
		}
		if last := recs2[len(recs2)-1]; !bytes.Equal(last, appended) {
			t.Fatalf("appended record came back as %q", last)
		}
	})
}

// checkScan opens a copy of data with ScanBatchWAL and compares what it
// keeps with a SplitRecord walk over the whole buffer.
func checkScan(t *testing.T, data []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scan.wal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w, truncated, err := ScanBatchWAL(path)
	if len(data) > 0 && !bytes.HasPrefix(data, batchWALMagic[:]) {
		if !errors.Is(err, ErrWALFormat) {
			t.Fatalf("ScanBatchWAL of a foreign file: %v, want ErrWALFormat", err)
		}
		return
	}
	if err != nil {
		t.Fatalf("ScanBatchWAL: %v", err)
	}
	defer w.Close()
	var want [][]byte
	rest := data[min(len(data), len(batchWALMagic)):]
	for {
		payload, next, ok := SplitRecord(rest, MaxBatchRecord)
		if !ok {
			break
		}
		want, rest = append(want, payload), next
	}
	if w.Len() != len(want) || truncated != int64(len(rest)) {
		t.Fatalf("ScanBatchWAL kept %d records and truncated %d bytes, want %d and %d",
			w.Len(), truncated, len(want), len(rest))
	}
	var buf []byte
	for i, rec := range want {
		var got []byte
		if got, buf, err = w.Record(i, buf); err != nil || !bytes.Equal(got, rec) {
			t.Fatalf("Record(%d) = %q, %v; want %q", i, got, err, rec)
		}
	}
}
